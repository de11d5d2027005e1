"""Large-scale training-data operations over the testdata tables.

Beyond the reference's own operators, these are the operations a 100 TB
training-data pipeline needs (task brief): deduplication (exact, MinHash+LSH,
SimHash, n-gram Jaccard, embedding-cosine), similarity search (brute-force
and LSH-bucketed ANN), and text analysis (language id, quality scoring,
token counting, fingerprinting).

Design notes per op:
 * everything is ``map_batches`` over Arrow/pandas/numpy batches — no
   driver-side row loops; groupbys are the only shuffles.
 * hashes are *stable* across processes (md5/blake2, never Python ``hash``)
   so reruns and oracle comparisons are deterministic.
 * MinHash/SimHash emit per-batch vectorized signatures; LSH banding turns
   near-dup search into a ``groupby(band_id, band_hash)`` — the shuffle
   moves only (hash, doc_id) pairs, not text.
"""

from __future__ import annotations

import hashlib
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ..stages import graph
from ..stages.util import default_concurrency


def read_table(sf_dir: str, name: str, columns=None):
    return rd.read_parquet(os.path.join(sf_dir, f"{name}.parquet"),
                           columns=columns)


def _embedding_dim(sf_dir: str, ds) -> int:
    """Vector dimensionality from the parquet footer + first page — avoids
    launching a whole Dataset execution (``ds.limit(1)``) just to peek one
    row."""
    import glob

    import pyarrow.parquet as pq
    path = os.path.join(sf_dir, "embeddings.parquet")
    try:
        if os.path.isdir(path):
            path = sorted(glob.glob(os.path.join(path, "*.parquet")))[0]
        first = pq.ParquetFile(path).read_row_group(
            0, columns=["embedding"]).column("embedding")
        return len(first[0].as_py())
    except Exception:
        return len(_to_arrow(ds.limit(1))["embedding"][0].as_py())


def _embedding_matrix(col, dtype=np.float64) -> np.ndarray:
    """(n, dim) matrix from an Arrow ``list<float>`` column via a zero-copy
    flatten + reshape of the values buffer — ``to_pylist`` materialises
    n·dim Python floats, ~50× slower for wide embedding columns."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, 0), dtype)
    vals = col.flatten().to_numpy(zero_copy_only=False)
    return np.ascontiguousarray(
        vals.reshape(n, vals.size // n).astype(dtype, copy=False))


# ---------------------------------------------------------------------------
# text analysis
# ---------------------------------------------------------------------------

def token_count(sf_dir: str):
    """doc_id, n_tokens — non-empty ``[\\t\\n\\f\\r ]``-separated tokens
    (the explicit RE2 ``\\s`` class, NOT Python ``str.split()``, whose
    whitespace additionally covers ``\\v``, ``\\x1c``–``\\x1f`` and
    Unicode spaces and would silently diverge from the SQL oracle on
    such input); zero-token and NULL docs are excluded on both
    sides."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["text"].str.count(r"[^\t\n\f\r ]+")
        mask = n > 0                          # NaN (NULL text) excluded
        return pd.DataFrame({
            "doc_id": batch["doc_id"][mask],
            "n_tokens": n[mask].astype("int64"),
        })

    return ds.map_batches(f, batch_format="pandas")


# GPT-2-style pretokenizer, restricted to constructs RE2 (the SQL oracle's
# regex engine) and Python ``re`` evaluate identically: no lookahead, ASCII
# classes.  Contractions | space+letters | space+digits | space+other | ws.
# Whitespace is the EXPLICIT RE2 class [\t\n\f\r ] rather than ``\s``:
# Python's \s additionally matches \v and Unicode spaces (U+00A0 etc.),
# so a shared "\s" evaluates differently on non-ASCII-whitespace text.
_ASCII_WS = r"\t\n\f\r "
_BPE_PATTERN = (r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+"
                r"| ?[^" + _ASCII_WS + r"A-Za-z0-9]+|[" + _ASCII_WS + r"]+")

# token split for the hash-based ops whose oracle splits on RE2 '\s+'
# ([\t\n\f\r ]): same class on the engine side so parity holds even for
# documents containing non-ASCII whitespace
_ASCII_WS_RE = re.compile(r"[\t\n\f\r ]+")


def _ws_tokens(text: str) -> list[str]:
    return [w for w in _ASCII_WS_RE.split(text) if w]


def token_count_bpe(sf_dir: str):
    """BPE-ish token counting: number of GPT-2-style pretokenizer matches
    per document (the unit an LLM tokenizer budget is measured in, vs the
    whitespace count of :func:`token_count`).  Vectorised pandas
    ``str.count`` over the compiled pattern; empty docs count 0."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "n_bpe_tokens": batch["text"].str.count(_BPE_PATTERN)
            .fillna(0).astype("int64"),
        })

    return ds.map_batches(f, batch_format="pandas")


def distinct_token_kmv(sf_dir: str, k: int = 256):
    """Approximate corpus-wide distinct-token count via a KMV (k-minimum
    values) sketch — the mergeable-sketch pattern a 100 TB engine uses
    where an exact ``groupby(token)`` distinct would shuffle every token:

    1. each block emits its ≤k smallest DISTINCT md5 token hashes
       (per-block partial sketch — the only full-data pass, no text
       leaves the block);
    2. ``groupby(hv)`` dedups hashes seen in several blocks, then
       ``sort(hv).limit(k)`` keeps the global k minima — both over
       ≤ n_blocks·k rows, never the corpus;
    3. the estimator is the standard KMV ``(k-1)·M / h_(k)`` over the
       hash space M (exact count when fewer than k distinct hashes).

    Every step is deterministic integer/float64 math on md5 hashes, so the
    sketch — including the ESTIMATE — has an exact SQL oracle."""
    ds = read_table(sf_dir, "documents", columns=["text"])

    def partial(batch: pd.DataFrame) -> pa.Table:
        toks = [w for t in batch["text"].dropna() for w in _ws_tokens(t)]
        # the sketch lives in the 2^63 space (hash >> 1): int64 survives
        # every Ray block conversion (uint64 does not), and the SQL oracle
        # applies the same shift BEFORE dedup so both sides see the
        # identical distinct set
        h = np.unique(_stable_token_hashes(toks) >> np.uint64(1))
        return pa.table({"hv": pa.array(h[:k].astype(np.int64),
                                        pa.int64())})

    mins = (ds.map_batches(partial, batch_format="pandas")
            .groupby("hv").aggregate(Count(alias_name="_n"))
            .sort("hv").limit(k))
    tbl = _to_arrow(mins)                     # ≤ k rows
    hv = np.asarray(tbl["hv"].to_pylist(), np.int64)
    m = len(hv)
    kth = int(hv.max()) if m else 0
    if m < k:
        est = m
    else:
        est = int(np.floor((k - 1) * 9223372036854775808.0 / kth))
    return pa.table({
        "k": pa.array([k], pa.int64()),
        "m": pa.array([m], pa.int64()),
        "kth_min_h": pa.array([kth], pa.int64()),
        "est_distinct": pa.array([est], pa.int64()),
    })


def distinct_token_kmv_by_lang(sf_dir: str, k: int = 64):
    """Per-key KMV: the mergeable distinct-count sketch of
    :func:`distinct_token_kmv` held PER GROUP — the shape a 100 TB
    engine uses for per-domain/per-language vocabulary stats.  Each
    block emits ≤k minima per language it saw, the grouped exchange
    dedups (lang, hash) pairs (≤ n_blocks·k·langs rows), and a per-lang
    kernel reads the estimator off its k minima.  Deterministic md5
    arithmetic end-to-end = exact SQL oracle including the estimates."""
    ds = read_table(sf_dir, "documents", columns=["lang", "text"])
    M = 9223372036854775808.0                  # 2^63 hash space

    def partial(batch: pd.DataFrame) -> pa.Table:
        langs, hvs = [], []
        for lang, g in batch.groupby("lang", sort=False):
            toks = [w for t in g["text"].dropna() for w in _ws_tokens(t)]
            h = np.unique(_stable_token_hashes(toks)
                          >> np.uint64(1))[:k].astype(np.int64)
            langs.extend([lang] * len(h))
            hvs.append(h)
        return pa.table({
            "lang": pa.array(langs, pa.string()),
            "hv": pa.array(np.concatenate(hvs) if hvs
                           else np.empty(0, np.int64), pa.int64()),
        })

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        hv = np.sort(g["hv"].to_numpy(np.int64))[:k]
        m = len(hv)
        kth = int(hv[-1]) if m else 0
        est = m if m < k else int(np.floor((k - 1) * M / kth))
        return pd.DataFrame({
            "lang": [g["lang"].iloc[0]],
            "k": np.array([k], np.int64),
            "m": np.array([m], np.int64),
            "kth_min_h": np.array([kth], np.int64),
            "est_distinct": np.array([est], np.int64)})

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby(["lang", "hv"]).aggregate(Count(alias_name="_n"))
            .groupby("lang").map_groups(finalize, batch_format="pandas")
            .sort("lang")
            .select_columns(["lang", "k", "m", "kth_min_h",
                             "est_distinct"]))


_ROLL_BASE = np.uint64(1_000_003)          # polynomial base
_ROLL_MOD = np.uint64((1 << 31) - 1)        # Mersenne 2^31-1
_ROLL_K = 8                                 # char window
_ROLL_SAMPLE = 64                           # keep hashes ≡ 0 (mod 64)


def _roll_powers(k: int = _ROLL_K) -> list[int]:
    """B^(k-1-j) mod M for j = 0..k-1 — shared between the engine kernel
    and the SQL oracle's generated polynomial expression."""
    pw = [1] * k
    for j in range(k - 2, -1, -1):
        pw[j] = (pw[j + 1] * int(_ROLL_BASE)) % int(_ROLL_MOD)
    return pw


def doc_fingerprint_rolling(sf_dir: str, k: int = _ROLL_K,
                            sample_mod: int = _ROLL_SAMPLE):
    """Rolling-hash document fingerprints (content-defined sampling, the
    winnowing/CDC-style scheme large-scale dedup pipelines use): every
    char ``k``-gram is hashed with a Rabin-Karp polynomial over its
    codepoints mod 2^31-1, and the ~1/``sample_mod`` of positions whose
    hash ≡ 0 (mod ``sample_mod``) form the document's fingerprint set —
    robust to insertions/deletions outside the window, unlike the whole-
    document md5 of :func:`doc_fingerprint`.

    Emits DISTINCT (doc_id, fp) rows.  The polynomial sum of 8 products
    (codepoint < 2^21 × power < 2^31) stays under 2^55, so one trailing
    mod in uint64 is exact — and the identical expression is evaluated in
    BIGINT by the SQL oracle."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    powers = np.array(_roll_powers(k), np.uint64)

    def f(batch: pd.DataFrame) -> pa.Table:
        return _rolling_fp_batch(batch, k, sample_mod, powers)

    return ds.map_batches(f, batch_format="pandas") \
        .sort(["doc_id", "fp"])


def _rolling_fp_batch(batch: pd.DataFrame, k: int, sample_mod: int,
                      powers: np.ndarray) -> pa.Table:
    """Shared kernel for :func:`doc_fingerprint_rolling` and
    :func:`dedup_cdc_chunks`: DISTINCT (doc_id, fp) rows of sampled
    Rabin-Karp char ``k``-gram hashes."""
    out_ids, out_fps = [], []
    for doc_id, text in zip(batch["doc_id"], batch["text"]):
        if not isinstance(text, str) or len(text) < k:
            continue
        cp = np.frombuffer(text.encode("utf-32-le"),
                           np.uint32).astype(np.uint64)
        n_pos = len(cp) - k + 1
        h = np.zeros(n_pos, np.uint64)
        for j in range(k):                     # 8 vector ops per doc
            h += cp[j:j + n_pos] * powers[j]
        h %= _ROLL_MOD
        fps = np.unique(h[h % np.uint64(sample_mod) == 0])
        if len(fps):
            out_ids.append(np.full(len(fps), doc_id, np.int64))
            out_fps.append(fps.astype(np.int64))
    if not out_ids:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "fp": pa.array([], pa.int64())})
    return pa.table({"doc_id": pa.array(np.concatenate(out_ids)),
                     "fp": pa.array(np.concatenate(out_fps))})


def sample_hash(sf_dir: str, rate_ppm: int = 100_000, seed: str = "s13"):
    """Deterministic hash sampling: keep a document iff
    ``md5(seed || doc_id) mod 1e6 < rate_ppm`` — the reproducible,
    rerun-stable, cluster-size-independent way to subset training data
    (a ``ds.random_sample`` would differ per run and per partitioning).
    Pure per-batch filter, no shuffle; exact SQL oracle."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        # Arrow-native filter: .take preserves the string type even for
        # an all-NULL text block (a pandas round-trip would re-infer it
        # as the null type and break the downstream sort's schema)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        h = _stable_token_hashes([f"{seed}:{d}" for d in ids])
        ppm = (h % np.uint64(1_000_000)).astype(np.int64)
        idx = pa.array(np.flatnonzero(ppm < rate_ppm))
        return pa.table({
            "doc_id": t.column("doc_id").take(idx),
            "text": t.column("text").take(idx),
            "bucket_ppm": pa.array(ppm[ppm < rate_ppm]),
        })

    return ds.map_batches(f, batch_format="pyarrow",
                          zero_copy_batch=True).sort("doc_id")


def quality_score_exact(sf_dir: str):
    """Simple quality heuristics per document: char count, token count,
    mean token length and uppercase ratio as exact integer micros (floor of
    a deterministic double division — hash-identical to the SQL oracle)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        # explicit RE2 \s class throughout (Python str.strip/.split and
        # the Python \s regex additionally treat \v, \x1c-\x1f and
        # Unicode spaces as whitespace — oracle divergence on such
        # input); zero-token docs excluded on both sides
        tok_n = batch["text"].str.count(r"[^\t\n\f\r ]+")
        mask = tok_n > 0                      # NaN (NULL text) excluded
        text = batch["text"][mask]
        n_tokens = tok_n[mask].astype("int64")
        n_chars = text.str.len().astype("int64")
        n_nospace = text.str.replace(r"[\t\n\f\r ]+", "", regex=True) \
            .str.len().astype("int64")
        n_upper = text.str.count(r"[A-Z]").astype("int64")
        return pd.DataFrame({
            "doc_id": batch["doc_id"][mask],
            "n_chars": n_chars,
            "n_tokens": n_tokens,
            "mean_token_len_micro": np.floor(
                n_nospace.to_numpy() * 1000000.0
                / n_tokens.to_numpy()).astype(np.int64),
            "upper_ratio_micro": np.floor(
                n_upper.to_numpy() * 1000000.0
                / n_chars.to_numpy()).astype(np.int64),
        })

    return ds.map_batches(f, batch_format="pandas")


_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "for", "it"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "zu"},
    "fr": {"le", "la", "les", "et", "est", "pas", "un", "une", "dans"},
    "es": {"el", "la", "los", "y", "es", "no", "un", "una", "que"},
}


def lang_id(sf_dir: str):
    """Heuristic language id: stopword-hit voting per language (n-gram-free
    but deterministic); emits doc_id, lang_pred, score."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    langs = sorted(_STOPWORDS)
    stop_sets = [_STOPWORDS[lg] for lg in langs]

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        # vectorised voting: one flat token array, membership per language
        # via pandas isin, segment-sum per doc (no per-row Python loop);
        # the split uses the explicit RE2 \s class — Python .split()
        # also breaks on \v/\x1c-\x1f/Unicode spaces and can leak
        # stopwords the oracle's tokenisation never sees
        toks = batch["text"].str.lower() \
            .str.findall(r"[^\t\n\f\r ]+")
        lens = np.fromiter(
            (len(x) if isinstance(x, list) else 0 for x in toks),
            np.int64, len(toks))
        n = len(batch)
        votes = np.zeros((n, len(langs)), np.float64)
        if lens.sum():
            flat = pd.Series(
                [w for words in toks
                 for w in (words if isinstance(words, list) else [])],
                dtype=object)
            doc_idx = np.repeat(np.arange(n), lens)
            for j, ss in enumerate(stop_sets):
                hit = flat.isin(ss).to_numpy()
                np.add.at(votes[:, j], doc_idx[hit], 1.0)
        total = votes.sum(axis=1)
        best = votes.argmax(axis=1)     # ties -> first (alphabetical) lang
        # exact integer micros (floor in float64, mirroring the SQL oracle
        # floor(n * 1000000.0 / total)) so values hash identically
        micro = np.where(
            total > 0,
            np.floor(votes.max(axis=1) * 1e6 / np.maximum(total, 1)),
            0.0).astype(np.int64)
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "lang_pred": [langs[b] if t > 0 else "und"
                          for b, t in zip(best, total)],
            "score_micro": micro,
        })

    return ds.map_batches(f, batch_format="pandas")


def lang_count(sf_dir: str):
    """Distribution of the provided ``lang`` column (grouped aggregate)."""
    ds = read_table(sf_dir, "documents", columns=["lang"])
    return ds.groupby("lang").aggregate(Count(alias_name="n")).sort("lang")


def doc_fingerprint(sf_dir: str):
    """Stable md5 content fingerprint per document (matches SQL md5(),
    including md5(NULL) IS NULL for a NULL text)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        # explicitly-typed output: a block whose texts are ALL NULL
        # must still carry fp: string — pandas/Arrow inference would
        # emit the null type and break downstream concat/fill schemas
        return pa.table({
            "doc_id": t.column("doc_id"),
            "fp": pa.array([hashlib.md5(x.encode("utf-8")).hexdigest()
                            if isinstance(x, str) else None
                            for x in t.column("text").to_pylist()],
                           pa.string()),
        })

    return ds.map_batches(f, batch_format="pyarrow",
                          zero_copy_batch=True)


# ---------------------------------------------------------------------------
# deduplication
# ---------------------------------------------------------------------------

def exact_dedup(sf_dir: str):
    """Exact dedup by content hash: keep the smallest doc_id per distinct
    text; also reports the duplicate count (hash-partitioned groupby —
    SURVEY.md §2.7 'exact dedup of canonical entities')."""
    ds = doc_fingerprint(sf_dir)
    # NULL texts form ONE group (SQL GROUP BY semantics); Ray's sort
    # can't order None string keys, so the null fp maps to a sentinel
    # no 32-hex md5 digest can equal — fp never reaches the output
    ds = ds.map_batches(
        lambda t: t.set_column(t.schema.get_field_index("fp"), "fp",
                               pc.fill_null(t.column("fp"), "\x00null")),
        batch_format="pyarrow", zero_copy_batch=True)
    return (ds.groupby("fp")
            .aggregate(Min("doc_id", alias_name="doc_id"),
                       Count(alias_name="n_dups"))
            .select_columns(["doc_id", "n_dups"])
            .sort("doc_id"))


def _stable_token_hashes(tokens: list[str]) -> np.ndarray:
    """Stable 64-bit hashes of a token list: low 8 bytes (little-endian) of
    md5 — bit-identical to DuckDB ``md5_number_lower`` so every op built on
    these hashes (minhash, simhash, jaccard) has an exact SQL oracle.
    Deduplicated before hashing so repeated tokens cost one digest."""
    if not tokens:
        return np.empty(0, np.uint64)
    uniq, inv = np.unique(np.asarray(tokens, object), return_inverse=True)
    hu = np.fromiter(
        (int.from_bytes(hashlib.md5(w.encode("utf-8")).digest()[8:],
                        "little") for w in uniq),
        np.uint64, len(uniq))
    return hu[inv]


_MERSENNE = np.uint64((1 << 61) - 1)


def _mod_mersenne(x: np.ndarray) -> np.ndarray:
    """``x % (2^61 - 1)`` for uint64 via the Mersenne bit identity
    ``(x & M) + (x >> 61)`` + one conditional subtract — bit-identical to
    ``%`` (the SQL oracle's arithmetic) but ~6× faster: numpy's unsigned
    modulo is a per-element scalar division."""
    r = (x & _MERSENNE) + (x >> np.uint64(61))
    np.subtract(r, _MERSENNE, out=r, where=r >= _MERSENNE)
    return r


class MinHasher:
    """Word-shingle MinHash signatures (stateful: permutation table built
    once per actor)."""

    def __init__(self, num_perm: int = 128, shingle: int = 3,
                 seed: int = 17):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle = shingle

    def gram_strings(self, text: str) -> list[str]:
        # explicit RE2 \s class, not str.split() (Python whitespace
        # additionally covers \v, \x1c-\x1f, Unicode spaces); a NULL
        # text shingles like an empty one — both drop out, exactly as
        # the oracle's lower(NULL)/len(tk)=0 chain does
        if not isinstance(text, str):
            return []
        toks = _ws_tokens(text.lower())
        k = self.shingle
        if len(toks) < k:
            return [" ".join(toks)] if toks else []
        return [" ".join(toks[i:i + k])
                for i in range(len(toks) - k + 1)]

    def shingles(self, text: str) -> np.ndarray:
        return _stable_token_hashes(self.gram_strings(text))

    def signature(self, text: str) -> np.ndarray:
        h = self.shingles(text)
        if h.size == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, np.uint64)
        # (P, S) permuted hashes -> min over shingles
        with np.errstate(over="ignore"):
            ph = _mod_mersenne(self.a[:, None] * h[None, :]
                               + self.b[:, None])
        return ph.min(axis=1)

    def signatures_batch(self, texts: list[str]) -> np.ndarray:
        """Vectorised signatures for a whole batch: md5 + permute each
        DISTINCT shingle across the whole batch once (formulaic corpora
        repeat grams heavily across docs — the md5 digests dominate the
        stage otherwise), gather per doc, per-doc min via
        ``np.minimum.reduceat``.  Min is idempotent over duplicate grams,
        so batch-level dedup is bit-identical to per-doc hashing."""
        gram_lists = []
        lengths = []
        for text in texts:
            g = self.gram_strings(text)
            gram_lists.append(g)
            lengths.append(len(g))
        n = len(texts)
        sigs = np.full((n, self.num_perm), np.iinfo(np.uint64).max,
                       np.uint64)
        nonempty = [i for i, L in enumerate(lengths) if L]
        if not nonempty:
            return sigs
        all_grams = np.asarray(
            [g for i in nonempty for g in gram_lists[i]], object)
        uniq, inv = np.unique(all_grams, return_inverse=True)
        hu = np.fromiter(
            (int.from_bytes(hashlib.md5(w.encode("utf-8")).digest()[8:],
                            "little") for w in uniq),
            np.uint64, len(uniq))
        with np.errstate(over="ignore"):
            ph_u = _mod_mersenne(
                (self.a[:, None] * hu[None, :] + self.b[:, None]))
        ph = ph_u[:, inv]                                # (P, total) gather
        starts = np.cumsum([0] + [lengths[i] for i in nonempty])[:-1]
        mins = np.minimum.reduceat(ph, starts, axis=1)   # (P, n_nonempty)
        sigs[nonempty] = mins.T
        return sigs


class MinHashStage:
    """documents batch -> (band_id, band_hash, doc_id) exploded rows.

    ``salt_mask`` (a power of two minus one) additionally emits
    ``gsalt = band_hash & salt_mask`` so downstream grouping can coarsen
    (band_id, gsalt) — many LSH buckets per Python ``map_groups`` call
    instead of one (buckets are mostly singletons)."""

    def __init__(self, num_perm=128, bands=32, shingle=3, seed=17,
                 salt_mask: int | None = None):
        if num_perm % bands:
            raise ValueError(f"num_perm={num_perm} is not a multiple of "
                             f"bands={bands}")
        self.mh = MinHasher(num_perm, shingle, seed)
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.salt_mask = salt_mask

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = np.asarray(batch.column("doc_id").to_pylist(), np.int64)
        texts = batch.column("text").to_pylist()
        sigs = self.mh.signatures_batch(texts)          # (n, P)
        # NULL texts emit NO band rows (the oracle's lower(NULL) chain
        # drops them); tokenless-but-non-NULL docs keep the all-max
        # fill signature and so bucket together — mirroring the
        # oracle's len(tk)=0 -> [NULL]-gram branch, where every empty
        # doc shares the NULL band hash (empty docs ARE duplicates of
        # each other)
        keep = np.fromiter((isinstance(t, str) for t in texts),
                           bool, len(texts))
        if not keep.all():
            sigs, doc_ids = sigs[keep], doc_ids[keep]
        n = len(doc_ids)
        # band hash: re-hash each band chunk via the same permutation trick
        # (cheap, vectorised) instead of per-chunk blake2b
        chunks = sigs.reshape(n, self.bands, self.rows_per_band)
        with np.errstate(over="ignore"):
            mix = np.zeros((n, self.bands), np.uint64)
            for r in range(self.rows_per_band):
                mix = (mix * np.uint64(0x9E3779B97F4A7C15)
                       + chunks[:, :, r])
        band_hash = (mix >> np.uint64(1)).astype(np.int64)
        band_id = np.tile(np.arange(self.bands, dtype=np.int32), n)
        cols = {
            "band_id": pa.array(band_id, pa.int32()),
            "band_hash": pa.array(band_hash.reshape(-1), pa.int64()),
            "doc_id": pa.array(np.repeat(doc_ids, self.bands), pa.int64()),
        }
        if self.salt_mask is not None:
            cols["gsalt"] = pa.array(
                band_hash.reshape(-1) & self.salt_mask, pa.int32())
        return pa.table(cols)


def minhash_candidates(sf_dir: str, num_perm=128, bands=32, shingle=3,
                       max_bucket: int = 200, rows_per_group: int = 5000):
    """MinHash+LSH near-dup candidate pairs: shingle → minhash → band →
    bucket groupby → pairs within bucket (ray_guide pattern).

    The grouping key is COARSENED to (band_id, band_hash & salt_mask) with
    the mask sized so each ``map_groups`` call sees ~``rows_per_group``
    rows: LSH buckets are mostly singletons, and one Python call per
    bucket costs more than the whole pairing (measured 19 s of UDF time
    for 7k pairs at sf0.1).  Buckets never split across groups (the salt
    is a function of band_hash), and the per-group kernel separates exact
    buckets vectorised via one lexsort."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = ds.count()                 # parquet metadata, no scan
    n_salt = 1 << max(0, (max(1, n_docs // rows_per_group) - 1)
                      .bit_length())
    stage = MinHashStage(num_perm=num_perm, bands=bands, shingle=shingle,
                         salt_mask=n_salt - 1)
    banded = ds.map_batches(stage.__call__, batch_format="pyarrow",
                            zero_copy_batch=True)
    tri_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def pairs(group: dict) -> dict:
        # one call per (band_id, salt) group holding MANY exact buckets;
        # numpy batch format: much cheaper per group than a DataFrame
        bh = np.asarray(group["band_hash"], np.int64)
        ids = np.asarray(group["doc_id"], np.int64)
        order = np.lexsort((ids, bh))
        bh_s, ids_s = bh[order], ids[order]
        _, starts, counts = np.unique(bh_s, return_index=True,
                                      return_counts=True)
        a_out, b_out = [], []
        for s, c in zip(starts[counts >= 2], counts[counts >= 2]):
            u = np.unique(ids_s[s:s + c])
            if len(u) > max_bucket:         # guard pathological buckets
                # no silent caps: a dropped bucket leaves a sentinel row
                # (a=-1, b=bucket hash) so the tail filter counts + logs it
                a_out.append(np.array([-1], np.int64))
                b_out.append(bh_s[s:s + 1])
                continue
            if len(u) < 2:
                continue
            tri = tri_cache.get(len(u))
            if tri is None:
                tri = tri_cache[len(u)] = np.triu_indices(len(u), k=1)
            a_out.append(u[tri[0]])
            b_out.append(u[tri[1]])
        if not a_out:
            return {"a": np.empty(0, np.int64), "b": np.empty(0, np.int64)}
        return {"a": np.concatenate(a_out), "b": np.concatenate(b_out)}

    cand = banded.groupby(["band_id", "gsalt"]).map_groups(
        pairs, batch_format="numpy")
    # dedup pairs found in multiple bands
    deduped = (cand.groupby(["a", "b"])
               .aggregate(Count(alias_name="n_bands"))
               .sort(["a", "b"]))

    def drop_sentinels(t: pa.Table) -> pa.Table:
        mask = pc.less(t.column("a"), 0)
        n_dropped = pc.sum(mask).as_py() or 0
        if n_dropped:
            import logging
            logging.getLogger(__name__).warning(
                "minhash_candidates: %d bucket(s) over %d docs dropped "
                "(band-hash collision or heavy duplicate cluster)",
                n_dropped, max_bucket)
        return t.filter(pc.invert(mask))

    return deduped.map_batches(drop_sentinels, batch_format="pyarrow",
                               zero_copy_batch=True)


_CLUSTERS_CACHE: dict[tuple, pa.Table] = {}


def dedup_clusters(sf_dir: str, max_iters: int = 64):
    """Duplicate CLUSTERS: connected components over the MinHash-LSH
    candidate-pair graph (a near-dup pair is an edge; a component is one
    duplicate cluster, labelled by its smallest doc_id) — the step after
    pair generation in a real dedup pipeline, where "keep one per
    cluster" needs the transitive closure, not just pairs.

    Pregel shape (pinned graph, message-only iteration on stateless
    tasks — :mod:`~..stages.graph`, shared with :func:`pagerank` /
    :func:`bfs_hops`): the pair edges are partitioned ONCE by
    hash(src); round 0 floods every node's own id, and afterwards only
    nodes whose label DECREASED re-flood their LOCAL edges — messages
    are (node, lbl) int64 pairs, pre-combined (min per destination)
    inside the producing shard and routed point-to-point, so both
    compute and exchange are bounded by the changing frontier.  A
    dataset-groupby formulation paid ~2 s of fixed barrier per
    iteration regardless of graph size; labels are monotone mins, so
    the result is identical for any shard count.  The fixpoint is "no
    messages pending".  The SQL oracle computes the same components
    with a recursive CTE.

    The result (a tiny table — only docs inside dup clusters) is memoised
    per process keyed on the documents fingerprint, because downstream
    consumers (:func:`dedup_keep_best`) re-derive it; the fingerprint
    invalidates on data regeneration (the kmeans-cache convention)."""
    cache_key = ("clusters", os.path.abspath(sf_dir), max_iters,
                 _table_fingerprint(sf_dir, "documents"))
    hit = _CLUSTERS_CACHE.get(cache_key)
    if hit is not None:
        return rd.from_arrow(hit)
    pairs = minhash_candidates(sf_dir).materialize()
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "cluster_id": pa.array([], pa.int64())})
    if pairs.count() == 0:
        _CLUSTERS_CACHE[cache_key] = empty
        return rd.from_arrow(empty)      # same return type as the main path

    def edge_rows(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "key": pa.array(np.concatenate([a, b])),
            "dst": pa.array(np.concatenate([b, a])),
        })

    edges = pairs.map_batches(edge_rows, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    parts = graph.partitions(edges, _n_shards())
    lbls, _LAST_GRAPH_EXCHANGE["dedup_clusters"] = graph.min_propagate(
        parts, 0, None, max_iters, "dedup_clusters")
    tbl = _to_arrow(rd.from_arrow_refs(graph.collect(
        parts, lbls, ("doc_id", "cluster_id"))).sort("doc_id"))
    if len(_CLUSTERS_CACHE) > 8:
        _CLUSTERS_CACHE.clear()
    _CLUSTERS_CACHE[cache_key] = tbl
    return rd.from_arrow(tbl)


def ngram_jaccard_verify(sf_dir: str, threshold: float = 0.7, shingle=3):
    """Near-dup pairs verified by exact n-gram Jaccard similarity —
    fully distributed (no driver-side text loop):

    1. candidate (a, b) pairs from MinHash/LSH (materialised once — they
       feed both sides of every pair);
    2. the :func:`_pair_gather` co-locates each document's RAW text with
       the pair sides referencing it (text bytes are ~8× smaller than
       int64 shingle lists, and no distinct-ids aggregate / repartition
       / hash-join operators are needed: those three barriers dominated
       wall time at 256 pairs), shingles ONLY the docs some pair side in
       the coarse group references, and lands both sides of a pair
       together, where one lexsort-unique kernel computes every Jaccard.

    The driver never sees a document text or a candidate id."""
    cands = minhash_candidates(sf_dir, shingle=shingle).materialize()
    if cands.count() == 0:
        return rd.from_arrow(pa.table({
            "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
            "jaccard_micro": pa.array([], pa.int64())}))
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    mh = MinHasher(shingle=shingle)
    n_groups = max(64, 4 * _join_partitions())

    def shingle_sets(t: pa.Table) -> pa.Array:
        sh_lists = [np.unique(mh.shingles(x)).astype(np.int64)
                    for x in t.column("text").to_pylist()]
        offs = np.concatenate(
            [[0], np.cumsum([len(x) for x in sh_lists])]).astype(np.int32)
        vals = (np.concatenate(sh_lists) if sh_lists
                else np.empty(0, np.int64))
        return pa.ListArray.from_arrays(pa.array(offs, pa.int32()),
                                        pa.array(vals, pa.int64()))

    # jaccard counts |A∪B| with one lexsort-unique over the flattened
    # (pair, shingle) rows of its coarse group
    def jaccard(g: pa.Table) -> pa.Table:
        empty = pa.table({"a": pa.array([], pa.int64()),
                          "b": pa.array([], pa.int64()),
                          "jaccard_micro": pa.array([], pa.int64())})
        if g.num_rows == 0:
            return empty
        a = g.column("a").to_numpy(zero_copy_only=False)
        b = g.column("b").to_numpy(zero_copy_only=False)
        sh = g.column("payload").combine_chunks()
        offs = sh.offsets.to_numpy(zero_copy_only=False)
        sizes = np.diff(offs)
        # slice the child values from the FIRST offset: a sliced/taken
        # list array's offsets need not start at 0
        vals = sh.values.to_numpy(zero_copy_only=False)[offs[0]:offs[-1]]
        pair_keys, pair_idx = np.unique(np.stack([a, b], axis=1),
                                        axis=0, return_inverse=True)
        n_pairs = len(pair_keys)
        cnt = np.bincount(pair_idx, minlength=n_pairs)
        tot = np.bincount(pair_idx, weights=sizes,
                          minlength=n_pairs).astype(np.int64)
        flat_pair = np.repeat(pair_idx, sizes)
        order = np.lexsort((vals, flat_pair))
        fp, fv = flat_pair[order], vals[order]
        uniq = np.ones(len(fv), bool)
        uniq[1:] = (fp[1:] != fp[:-1]) | (fv[1:] != fv[:-1])
        union = np.bincount(fp[uniq], minlength=n_pairs).astype(np.int64)
        inter = tot - union
        # both sides present, both non-empty, above threshold — the same
        # predicate the per-pair reference kernel applied
        per_side_nonempty = np.bincount(
            pair_idx[sizes > 0], minlength=n_pairs) == 2
        keep = (cnt == 2) & per_side_nonempty & (union > 0)
        with np.errstate(invalid="ignore", divide="ignore"):
            keep &= np.where(union > 0, inter / union, 0.0) >= threshold
        # exact integer micros via float64 floor — mirrors the SQL oracle
        jac = np.floor(inter[keep] * 1e6 / union[keep]).astype(np.int64)
        return pa.table({
            "a": pa.array(pair_keys[keep, 0], pa.int64()),
            "b": pa.array(pair_keys[keep, 1], pa.int64()),
            "jaccard_micro": pa.array(jac, pa.int64()),
        })

    doc_schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    return _pair_gather((docs, doc_schema), "doc_id", cands, n_groups,
                        shingle_sets, jaccard).sort(["a", "b"])


class SimHashStage:
    """64-bit SimHash per document (whole batch vectorised: hash every
    *unique* token once, scatter-add sign bits per doc).

    Token hash = low 8 bytes (little-endian) of md5 — bit-identical to
    DuckDB ``md5_number_lower`` so the op has an exact SQL oracle."""

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        # explicit RE2 \s token class (not Python .split(), whose
        # whitespace covers \v, \x1c-\x1f and Unicode spaces); a
        # tokenless (NULL/empty) doc keeps simhash 0 — the oracle LEFT
        # JOINs every doc_id and COALESCEs missing hashes to 0
        tok_lists = [_ws_tokens(t.lower()) if isinstance(t, str) else []
                     for t in batch["text"]]
        lengths = np.array([len(t) for t in tok_lists], np.int64)
        n = len(tok_lists)
        score = np.zeros((n, 64), np.int64)
        flat = [w for toks in tok_lists for w in toks]
        if flat:
            h = _stable_token_hashes(flat)
            bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
                    & np.uint64(1)).astype(np.int64)
            signs = 2 * bits - 1
            doc_idx = np.repeat(np.arange(n), lengths)
            np.add.at(score, doc_idx, signs)
        sim = ((score > 0).astype(np.uint64)
               @ (np.uint64(1) << np.arange(64, dtype=np.uint64)))
        return pd.DataFrame({
            "doc_id": batch["doc_id"],
            "simhash": sim.astype(np.int64),   # reinterpret for Arrow int64
        })


def simhash_table(sf_dir: str):
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    stage = SimHashStage()
    return ds.map_batches(stage.__call__,
                          batch_format="pandas").sort("doc_id")


# ---------------------------------------------------------------------------
# similarity search over embeddings
# ---------------------------------------------------------------------------

def _to_arrow(ds) -> pa.Table:
    # empty blocks out of an Aggregate can surface as SCHEMA-LESS pandas
    # blocks that survive even a pyarrow-format map_batches untouched;
    # to_arrow_refs then hands back raw DataFrames — drop empties of
    # either kind before concat
    tables = [ray.get(r) for r in ds.to_arrow_refs()]
    tables = [t if isinstance(t, pa.Table)
              else pa.Table.from_pandas(t, preserve_index=False)
              for t in tables if len(t)]
    return pa.concat_tables(tables) if tables else pa.table({})


def _join_partitions() -> int:
    """Hash-join partition count: one aggregator actor per partition must
    be schedulable CONCURRENTLY, so the cluster CPU count is the ceiling
    (num_partitions > CPUs deadlocks the aggregator pool on a small
    cluster; on a big one more partitions than cores buys nothing)."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    return max(2, cpus)


def _coalesce_schema_less(ds, n_parts: int | None = None):
    """Rewrite away SCHEMA-LESS empty blocks from a grouped output.

    Grouped aggregates / ``map_groups`` partitions that received no rows
    emit EMPTY blocks carrying no schema.  Probed behaviour (rounds 4-5):
    such blocks BYPASS ``map_batches`` UDFs entirely (an identity retype
    never sees them), crash ``Dataset.join`` when they sit on the build
    side ("no match for FieldRef <key>"), and log a schema-mismatch
    warning when unioned or sorted against real blocks.  A repartition is
    the one operator that reliably coalesces them away — apply this to
    any grouped output that feeds a join, union, or sort.

    ``shuffle=True`` is load-bearing: the split-based repartition packs
    rows into ``n_parts`` splits and leaves SCHEMA-LESS trailing blocks
    whenever the table holds fewer rows than partitions (probed round 5),
    while the shuffle path emits empty blocks WITH schema for every
    partition unconditionally.  The guarded tables are aggregate-scale
    (vocabulary / summary rows), so the extra exchange is noise next to
    the groupby that produced them."""
    return ds.repartition(n_parts or _join_partitions(), shuffle=True)


_COARSE_MULT = np.uint64(0x9E3779B97F4A7C15).astype(np.int64)  # fib hash


def _coarse_key(x: np.ndarray, n_groups: int) -> np.ndarray:
    """Deterministic coarse hash-partition key for int64 ids (wrapping
    int64 multiply is C semantics — stable across workers)."""
    with np.errstate(over="ignore"):
        h = x.astype(np.int64) * _COARSE_MULT
    return np.abs(h >> np.int64(17)) % np.int64(n_groups)


def _cogroup(left, right, key: str, n_groups: int, kernel):
    """Co-group two datasets over coarse hash groups of the int64 ``key``
    column — the one exchange behind the catalogue's anti/semi-joins,
    keyed joins and pair gathers.  Ray Data has no anti-join, and chained
    ``Dataset.join`` aggregator pools deadlock when they pipeline
    together (round-4 finding), so both sides meet in ONE
    ``groupby(_coarse_key(key, n_groups))``: ``n_groups`` bounded groups,
    never one group per key, so a hot key cannot make an unbounded group
    and Python runs once per group.

    ``left`` and ``right`` are ``(dataset, schema)`` pairs.  Each side's
    blocks are cast to its schema, null-padded to the union of both (a
    column both sides name must have one type) and tagged with its side;
    ``kernel(left_rows, right_rows)`` gets each group's rows of each side
    as Arrow tables in that side's own schema — the other side's padding
    never reaches it, so no int column degrades to float — and returns
    the group's output batch (Arrow, pandas or a numpy dict).  A side
    may be empty; a group holds at least one row of either side.

    Schema-less empty blocks bypass the side maps and would enter the
    union untagged: apply :func:`_coalesce_schema_less` to a grouped
    upstream that can emit them."""
    (lds, lschema), (rds, rschema) = left, right
    union = pa.unify_schemas([lschema, rschema])

    def tagged(schema: pa.Schema, side: int):
        def f(t: pa.Table) -> pa.Table:
            t = t.select(schema.names).cast(schema)
            n = t.num_rows
            keys = t.column(key).to_numpy(zero_copy_only=False)
            return pa.table(
                [t.column(c.name) if c.name in schema.names
                 else pa.nulls(n, c.type) for c in union]
                + [pa.array(np.full(n, side, np.int8)),
                   pa.array(_coarse_key(keys, n_groups), pa.int64())],
                names=union.names + ["_side", "_gk"])
        return f

    def group(g: pa.Table):
        is_left = pc.equal(g.column("_side"), 0)
        return kernel(g.filter(is_left).select(lschema.names),
                      g.filter(pc.invert(is_left)).select(rschema.names))

    return (lds.map_batches(tagged(lschema, 0), batch_format="pyarrow",
                            zero_copy_batch=True)
            .union(rds.map_batches(tagged(rschema, 1),
                                   batch_format="pyarrow",
                                   zero_copy_batch=True))
            .groupby("_gk").map_groups(group, batch_format="pyarrow"))


def _match_filter(key: str, anti: bool):
    """:func:`_cogroup` kernel of the semi-join (``anti=False``: the left
    rows whose ``key`` the right side holds) and the anti-join (those it
    lacks) — one vectorised ``is_in`` per group."""
    def kernel(left: pa.Table, right: pa.Table) -> pa.Table:
        hit = pc.is_in(left.column(key),
                       value_set=right.column(key).combine_chunks())
        return left.filter(pc.invert(hit) if anti else hit)
    return kernel


def _pair_gather(items, key: str, pairs, n_groups: int, load, kernel):
    """Both sides' payloads of every candidate ``(a, b)`` pair in one
    group, over two coarse exchanges and no hash-join operator:

    1. the :func:`_cogroup` of ``items`` — a ``(dataset, schema)`` pair
       holding the int64 ``key`` and the payload's source columns — with
       the pair sides ``(key, a, b)`` (each pair twice, once per id)
       attaches ``load(item_rows)``, an Arrow array with one payload per
       row computed only for the items some pair side in the group
       references, to every pair side;
    2. a ``groupby(hash(a, b))`` lands both sides of a pair together, and
       ``kernel`` gets rows ``(a, b, is_b, payload)``, ``is_b`` true on
       the ``b`` id's row.

    Item payloads move once for the corpus plus once per pair side."""
    def sides(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        return pa.table({key: np.concatenate([a, b]),
                         "a": np.concatenate([a, a]),
                         "b": np.concatenate([b, b])})

    def attach(it: pa.Table, sd: pa.Table) -> pa.Table:
        if it.num_rows == 0 or sd.num_rows == 0:
            it, sd = it.slice(0, 0), sd.slice(0, 0)
        vid = sd.column(key).combine_chunks()
        it = it.filter(pc.is_in(it.column(key), value_set=pc.unique(vid)))
        idx = pc.index_in(vid, value_set=it.column(key).combine_chunks())
        a = sd.column("a").to_numpy(zero_copy_only=False)
        b = sd.column("b").to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            pk = _coarse_key(a * np.int64(3) + b, n_groups)
        return pa.table({
            "pk": pa.array(pk, pa.int64()),
            "a": pa.array(a, pa.int64()),
            "b": pa.array(b, pa.int64()),
            "is_b": pa.array(vid.to_numpy(zero_copy_only=False) == b),
            "payload": load(it).take(idx),
        })

    side_schema = pa.schema([(key, pa.int64()), ("a", pa.int64()),
                             ("b", pa.int64())])
    return (_cogroup(items,
                     (pairs.map_batches(sides, batch_format="pyarrow",
                                        zero_copy_batch=True),
                      side_schema),
                     key, n_groups, attach)
            .groupby("pk").map_groups(kernel, batch_format="pyarrow"))


def _smallest_by_stats(sf_dir: str, n: int) -> pa.Table | None:
    """Driver-side fast path for query selection: parquet row-group
    ``vec_id`` min/max statistics identify the only row groups that can
    hold the ``n`` smallest ids, so selecting the query vectors costs a
    footer scan plus typically ONE row-group read — no Ray dataset
    execution at all (the selection pass was half of knn_bruteforce's
    wall time, pure fixed barrier cost on a small table).  Returns None
    when stats are missing or the data is so unsorted the read would
    exceed a bounded budget — callers fall back to the distributed
    partial-select."""
    import glob

    import pyarrow.parquet as pq
    path = os.path.join(sf_dir, "embeddings.parquet")
    try:
        files = (sorted(glob.glob(os.path.join(path, "*.parquet")))
                 if os.path.isdir(path) else [path])
        groups: list[tuple[int, str, int, int]] = []
        for f in files:
            md = pq.ParquetFile(f).metadata
            if md.num_row_groups == 0:
                continue
            col_idx = next(
                (j for j in range(md.num_columns)
                 if md.row_group(0).column(j).path_in_schema == "vec_id"),
                None)
            if col_idx is None:
                return None
            for g in range(md.num_row_groups):
                st = md.row_group(g).column(col_idx).statistics
                if st is None or not st.has_min_max:
                    return None
                groups.append((st.min, f, g,
                               md.row_group(g).num_rows))
        if not groups or len(groups) > 65536:
            return None
        groups.sort()
        budget = max(10 * n, 100_000)
        collected, total, kth = [], 0, None
        pf_cache: dict[str, pq.ParquetFile] = {}
        for mn, f, g, rows in groups:
            if kth is not None and mn > kth:
                break
            if total + rows > budget:
                return None            # too unsorted: stay distributed
            pf = pf_cache.setdefault(f, pq.ParquetFile(f))
            collected.append(pf.read_row_group(
                g, columns=["vec_id", "embedding"]))
            total += rows
            if kth is None and total >= n:
                ids = np.concatenate(
                    [t.column("vec_id").to_numpy(zero_copy_only=False)
                     for t in collected])
                kth = int(np.partition(ids, n - 1)[n - 1])
        t = pa.concat_tables(collected)
        order = pc.sort_indices(t.column("vec_id"))
        return t.take(order.slice(0, min(n, t.num_rows)))
    except Exception:
        return None


def _smallest_by_vec_id(ds, n: int, sf_dir: str | None = None) -> pa.Table:
    """The ``n`` rows with the smallest ``vec_id``: parquet-stats pruned
    read when possible (see :func:`_smallest_by_stats`), else per-block
    partial select (argpartition) + a tiny driver merge over
    ≤ n_blocks·n rows — never ``ds.sort().limit(n)``, which runs a full
    distributed sort of the whole table to keep n rows (measured as the
    dominant cost of knn/ann/ivf query selection at sf0.1)."""
    if sf_dir is not None:
        t = _smallest_by_stats(sf_dir, n)
        if t is not None:
            return t

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column("vec_id").to_numpy(zero_copy_only=False)
        if len(ids) <= n:
            return t
        idx = np.argpartition(ids, n - 1)[:n]
        return t.take(pa.array(np.sort(idx)))

    parts = _to_arrow(ds.map_batches(partial, batch_format="pyarrow",
                                     zero_copy_batch=True))
    order = pc.sort_indices(parts.column("vec_id"))
    return parts.take(order.slice(0, min(n, parts.num_rows)))


def _cos_normalize(M: np.ndarray):
    """Row-normalise for cosine similarity; returns ``(Mn, zero)``.

    A zero-norm row normalises to zeros and its ``zero`` mask bit marks
    it so :func:`_cos_micros` can impose the oracle convention — DuckDB
    ``list_cosine_similarity`` returns **-1.0** whenever either side
    has zero norm — instead of the NaN (unguarded) or 0.0 (eps-guarded)
    a plain division produces.  No epsilon floor: a denormal-small but
    nonzero vector must normalise to its true direction (an 1e-12
    floor silently zeroed any vector with norm below it, diverging
    from the oracle's exact double arithmetic)."""
    n = np.linalg.norm(M, axis=1, keepdims=True)
    zero = n[:, 0] == 0.0
    return M / np.where(n == 0.0, 1.0, n), zero


def _cos_micros(a, b, rowwise: bool = False) -> np.ndarray:
    """Cosine similarity as integer micros, the one scoring kernel of
    every cosine op: ``a·bᵀ`` (row-wise dots when ``rowwise``) of two
    float64 ``(Mn, zero)`` pairs from :func:`_cos_normalize`, -1 where
    either side has zero norm, rounded half-away-from-zero like DuckDB
    ``round(sim * 1e6)`` — so thresholds and tie-breaks are exact integer
    comparisons on both the engine and the SQL-oracle side."""
    (an, a_zero), (bn, b_zero) = a, b
    if rowwise:
        sims = np.einsum("ij,ij->i", an, bn)
        sims[a_zero | b_zero] = -1.0
    else:
        sims = an @ bn.T
        sims[a_zero, :] = -1.0
        sims[:, b_zero] = -1.0
    return np.copysign(np.floor(np.abs(sims) * 1e6 + 0.5),
                       sims).astype(np.int64)


def _block_topk(q_ids: np.ndarray, ids: np.ndarray, scores: np.ndarray,
                k: int, col: str, descending: bool = False,
                mask: np.ndarray | None = None) -> pa.Table:
    """Exact per-block top-``k`` per query, the combiner half of every
    ANN query (:func:`_merge_topk` is the other): column ``qi`` of the
    (B, nq) ``scores`` ranks the block's rows — only those ``mask``
    (B, nq) keeps, if given — for query ``q_ids[qi]`` by (score, vec_id
    ascending), the score descending for similarities.  A partition
    finds the k-th score and only rows at or above it are lex-sorted, so
    a tie AT the cut is cut by vec_id, at O(B) and with no bound on the
    ids (unlike a packed ``score·2³² + id`` key)."""
    key = -scores if descending else scores
    sel_q, sel_r = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for qi in range(len(q_ids)):
        rows = np.arange(len(ids)) if mask is None \
            else np.flatnonzero(mask[:, qi])
        if len(rows) > k:
            s = key[rows, qi]
            rows = rows[s <= np.partition(s, k - 1)[k - 1]]
        sel_r.append(rows[np.lexsort((ids[rows], key[rows, qi]))[:k]])
        sel_q.append(np.full(len(sel_r[-1]), qi, np.int64))
    qi, rows = np.concatenate(sel_q), np.concatenate(sel_r)
    return pa.table({"query_id": pa.array(q_ids[qi], pa.int64()),
                     "vec_id": pa.array(ids[rows], pa.int64()),
                     col: pa.array(scores[rows, qi], pa.int64())})


def _merge_topk(ds, part_fn, k: int, col: str, descending: bool = False,
                batch_size: int = 2048) -> pa.Table:
    """Run ``part_fn`` (a :func:`_block_topk` per block) over ``ds`` and
    merge the tiny partials once, Arrow-native: sort on (query_id,
    score, vec_id), rank from 1 per query, keep ``rank ≤ k``.  Returns
    (query_id, rank, vec_id, <col>), all int64."""
    parts = _to_arrow(ds.map_batches(part_fn, batch_format="pyarrow",
                                     batch_size=batch_size,
                                     zero_copy_batch=True))
    if parts.num_rows == 0:
        parts = pa.table({c: pa.array([], pa.int64())
                          for c in ("query_id", "vec_id", col)})
    parts = parts.sort_by([
        ("query_id", "ascending"),
        (col, "descending" if descending else "ascending"),
        ("vec_id", "ascending")])
    q = parts["query_id"].to_numpy()
    pos = np.arange(len(q))
    head = np.ones(len(q), bool)
    head[1:] = q[1:] != q[:-1]
    rank = pos - np.maximum.accumulate(np.where(head, pos, 0)) + 1
    keep = pa.array(rank <= k)
    return pa.table({
        "query_id": parts["query_id"].filter(keep),
        "rank": pa.array(rank, pa.int64()).filter(keep),
        "vec_id": parts["vec_id"].filter(keep),
        col: parts[col].filter(keep),
    })


def _query_vectors(ds, sf_dir: str, n_queries: int):
    """(query ids, query embedding column): the ``n_queries`` vectors
    with the smallest vec_ids, the query set of every ANN op."""
    qtbl = _smallest_by_vec_id(ds, n_queries, sf_dir)
    return (pc.cast(qtbl["vec_id"], pa.int64()).to_numpy(),
            qtbl["embedding"])


def knn_bruteforce(sf_dir: str, n_queries: int = 8, k: int = 10):
    """Brute-force cosine top-k: the query matrix (smallest ``n_queries``
    vec_ids) is broadcast; each batch computes a local top-k via one matmul;
    partial top-ks are merged on the driver (tiny)."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q_ids, q_emb = _query_vectors(ds, sf_dir, n_queries)
    return _cosine_topk(ds, q_ids, _embedding_matrix(q_emb), k)


def _cosine_topk(ds, q_ids: np.ndarray, Q: np.ndarray, k: int,
                 row_filter=None) -> pa.Table:
    """Cosine top-``k`` of the float64 query rows ``Q`` over every row of
    ``ds``, or over the rows the block-side ``row_filter(X)`` mask keeps:
    the normalised queries are broadcast once, each block scores its
    rows with one matmul and keeps its exact top-k."""
    state_ref = ray.put((q_ids, _cos_normalize(Q), row_filter))

    def partial_topk(batch: pa.Table) -> pa.Table:
        from ..stages.util import cached_from_ref
        q_ids_, q_norm, row_filter_ = cached_from_ref(state_ref)
        ids = pc.cast(batch["vec_id"], pa.int64()).to_numpy()
        X = _embedding_matrix(batch["embedding"])
        if row_filter_ is not None:
            keep = row_filter_(X)
            ids, X = ids[keep], X[keep]
        micros = _cos_micros(_cos_normalize(X), q_norm)      # (B, Q)
        return _block_topk(q_ids_, ids, micros, k, "sim_micro",
                           descending=True)

    return _merge_topk(ds, partial_topk, k, "sim_micro", descending=True,
                       batch_size=4096)


def _emb_micros(col) -> np.ndarray:
    """Embeddings on the integer-micros grid (round-half-away, matching
    SQL ``round(v * 1000000)``) — every k-means quantity derived from
    these is exact integer math, so the iterative algorithm below has an
    exact oracle (no float-summation-order hazards)."""
    X = _embedding_matrix(col)
    return np.copysign(np.floor(np.abs(X) * 1e6 + 0.5), X) \
        .astype(np.int64)


def _kmeans_assign(X: np.ndarray, C: np.ndarray):
    """(argmin cluster, full (B, k) int64 d2 matrix); micros < 2^21 so
    d2 < 2^48·dim; np.argmin's first-occurrence rule = lowest cid tie."""
    d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1), d2


_KMEANS_CACHE: dict[tuple, np.ndarray] = {}


def _table_fingerprint(sf_dir: str, name: str = "embeddings") -> tuple:
    """Cheap content fingerprint of a parquet table: (file, size,
    mtime_ns) per part — regenerating the data under the same path
    invalidates any cache keyed on it (no full-data hash needed)."""
    import glob
    path = os.path.join(sf_dir, f"{name}.parquet")
    files = (sorted(glob.glob(os.path.join(path, "*.parquet")))
             if os.path.isdir(path) else [path])
    out = []
    for f in files:
        try:
            st = os.stat(f)
            out.append((os.path.basename(f), st.st_size, st.st_mtime_ns))
        except OSError:
            out.append((os.path.basename(f), -1, -1))
    return tuple(out)


def _pq_codebooks(ds, sf_dir: str, m: int, k: int,
                  iters: int) -> np.ndarray:
    """The one Lloyd's k-means trainer: an independent k-means per
    length-``dim/m`` subspace, trained in ONE dataset pass per iteration
    (each block emits integer sufficient statistics for all ``m``
    subspaces at once).  ``m=1`` is the coarse quantizer of
    :func:`kmeans_ivf_assign`, which states the exactness contract.
    Training is deterministic, so repeated calls on the same input
    (assign then query) reuse the per-process cached result.  Returns
    (m, k, dim/m) int64."""
    cache_key = (sf_dir, m, k, iters, _table_fingerprint(sf_dir))
    if cache_key in _KMEANS_CACHE:
        return _KMEANS_CACHE[cache_key]
    seed = _emb_micros(_smallest_by_vec_id(ds, k, sf_dir)["embedding"])
    k = seed.shape[0]                       # corpus may hold < k vectors
    dim = seed.shape[1]
    sub = dim // m
    books = np.stack([seed[:, j * sub:(j + 1) * sub] for j in range(m)])
    for _ in range(iters):
        B = books

        def partial(batch: pa.Table) -> pa.Table:
            X = _emb_micros(batch["embedding"])
            codes = _pq_encode(X, B)
            n = np.zeros((m, k), np.int64)
            s = np.zeros((m, k, sub), np.int64)
            for j in range(m):
                n[j] = np.bincount(codes[:, j], minlength=k)
                np.add.at(s[j], codes[:, j], X[:, j * sub:(j + 1) * sub])
            # one row per (subspace, cluster), in that order
            return pa.table({
                "n": pa.array(n.reshape(-1)),
                "s": pa.array(list(s.reshape(m * k, sub)),
                              pa.list_(pa.int64())),
            })

        agg = _to_arrow(ds.map_batches(partial, batch_format="pyarrow",
                                       batch_size=2048,
                                       zero_copy_batch=True))
        # every block emits the same m·k rows: fold by summing blocks
        counts = np.asarray(agg["n"].to_pylist(), np.int64) \
            .reshape(-1, m, k).sum(axis=0)
        sums = np.asarray(agg["s"].to_pylist(), np.int64) \
            .reshape(-1, m, k, sub).sum(axis=0)
        new = books.copy()
        nz = counts > 0
        ratio = sums[nz] / counts[nz, None]          # exact ints / n
        new[nz] = np.copysign(np.floor(np.abs(ratio) + 0.5), ratio) \
            .astype(np.int64)
        books = new
    if len(_KMEANS_CACHE) > 32:
        _KMEANS_CACHE.clear()
    _KMEANS_CACHE[cache_key] = books
    return books


def _pq_encode(X: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(B, m) PQ codes of integer-micros rows ``X``: per subspace, the
    nearest codebook entry (ties to the lowest code)."""
    sub = books.shape[2]
    return np.stack([_kmeans_assign(X[:, j * sub:(j + 1) * sub],
                                    books[j])[0]
                     for j in range(len(books))], axis=1)


def _pq_adc(ds, sf_dir: str, Q: np.ndarray, m: int, k: int, iters: int):
    """The ADC scorer of :func:`pq_query` and :func:`ivfpq_query`: one
    (m, nq, k) int64 table of exact query-subspace-to-code d2, built
    once on the driver; the returned ``adc(X)`` gives a block's (B, nq)
    approximate distances as sums of ``m`` table lookups on its codes —
    no vector arithmetic per candidate."""
    books = _pq_codebooks(ds, sf_dir, m, k, iters)
    sub = books.shape[2]
    T = np.stack([_kmeans_assign(Q[:, j * sub:(j + 1) * sub], books[j])[1]
                  for j in range(m)])

    def adc(X: np.ndarray) -> np.ndarray:
        codes = _pq_encode(X, books)        # (B, nq): m table lookups
        return sum(T[j].T[codes[:, j]] for j in range(m))
    return adc


def _ivf_probe(ds, sf_dir: str, Q: np.ndarray, k: int, iters: int,
               nprobe: int):
    """The IVF probe of :func:`ivf_query` and :func:`ivfpq_query`: each
    query's ``nprobe`` nearest coarse cells (ties to the lowest cid),
    built once on the driver; the returned ``probed(X)`` is a block's
    (B, nq) mask of rows whose cell a query probes."""
    C = _pq_codebooks(ds, sf_dir, 1, k, iters)[0]
    _, qd2 = _kmeans_assign(Q, C)
    probe = np.argsort(qd2, axis=1, kind="stable")[:, :nprobe]  # (nq, p)

    def probed(X: np.ndarray) -> np.ndarray:
        cell, _ = _kmeans_assign(X, C)
        return (cell[:, None, None] == probe[None, :, :]).any(axis=2)
    return probed


def kmeans_ivf_assign(sf_dir: str, k: int = 8, iters: int = 3):
    """Distributed Lloyd's k-means over the embedding table — the coarse
    quantizer an IVF ANN index trains (each final cluster = one IVF
    cell/partition), trained by :func:`_pq_codebooks` with one subspace.
    Scale shape per iteration:

    * one ``map_batches`` pass emits per-block PARTIAL sufficient
      statistics (per-cluster int64 coordinate sums + counts, a k×dim
      table — the classic combiner before any exchange);
    * the driver folds the tiny partials, recomputes centroids, and
      broadcasts them into the next pass's closure.

    Everything lives on the integer-micros grid: coordinates are exact
    micros, cluster sums are order-free int64 adds, centroids are
    round-half-away(S/n) back onto the grid, distances are int64 sums of
    squared diffs, and argmin ties break to the lowest cluster id — so
    ``iters`` unrolled iterations are reproducible bit-for-bit by a SQL
    oracle.  Init: the k vectors with the smallest vec_ids.  An emptied
    cluster keeps its previous centroid."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    C = _pq_codebooks(ds, sf_dir, 1, k, iters)[0]

    def final(batch: pa.Table) -> pa.Table:
        X = _emb_micros(batch["embedding"])
        a, d2 = _kmeans_assign(X, C)
        return pa.table({
            "vec_id": batch["vec_id"],
            "cluster_id": pa.array(a.astype(np.int64)),
            "d2": pa.array(d2[np.arange(len(a)), a]),
        })

    return ds.map_batches(final, batch_format="pyarrow",
                          batch_size=2048,
                          zero_copy_batch=True).sort("vec_id")


def ivf_query(sf_dir: str, k: int = 8, iters: int = 3,
              n_queries: int = 8, nprobe: int = 2, topk: int = 10):
    """IVF ANN search over the k-means cells of :func:`kmeans_ivf_assign`:
    each query probes its ``nprobe`` nearest centroids and takes the
    exact int64-d2 top-``topk`` among vectors assigned to those cells —
    the standard inverted-file layout where a probe scans
    ~``nprobe/k`` of the corpus instead of all of it.

    Distributed shape: queries + centroids broadcast into a single
    ``map_batches`` pass; each block assigns its rows to cells, masks per
    query, and emits per-block top-k partials; the driver merges the tiny
    (n_queries·topk·n_blocks) candidate set.  Same integer-micros grid as
    the quantizer, so the SQL oracle (the unrolled k-means CTEs plus a
    probe join) matches exactly.  Ranks tie-break by vec_id."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q_ids, q_emb = _query_vectors(ds, sf_dir, n_queries)
    Q = _emb_micros(q_emb)                                   # (nq, dim)
    probed = _ivf_probe(ds, sf_dir, Q, k, iters, nprobe)

    def partial(batch: pa.Table) -> pa.Table:
        X = _emb_micros(batch["embedding"])
        ids = pc.cast(batch["vec_id"], pa.int64()).to_numpy()
        _, d2 = _kmeans_assign(X, Q)                           # (B, nq)
        return _block_topk(q_ids, ids, d2, topk, "d2", mask=probed(X))

    return _merge_topk(ds, partial, topk, "d2")


def pq_codes(sf_dir: str, m: int = 4, k: int = 8, iters: int = 2):
    """Product-quantization encoding — the memory-scale path for
    embedding search (a dim·4-byte vector compresses to ``m`` one-byte
    codes; at 100 TB of vectors the codes fit where the vectors cannot).
    Codebooks broadcast; each block encodes with ``m`` small matmul-free
    argmin kernels; no shuffle at all."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    books = _pq_codebooks(ds, sf_dir, m, k, iters)

    def assign(batch: pa.Table) -> pa.Table:
        codes = _pq_encode(_emb_micros(batch["embedding"]), books)
        cols = {"vec_id": batch["vec_id"]}
        for j in range(len(books)):
            cols[f"code_{j}"] = pa.array(codes[:, j].astype(np.int64),
                                         pa.int64())
        return pa.table(cols)

    return ds.map_batches(assign, batch_format="pyarrow",
                          batch_size=2048,
                          zero_copy_batch=True).sort("vec_id")


def pq_query(sf_dir: str, m: int = 4, k: int = 8, iters: int = 2,
             n_queries: int = 8, topk: int = 10):
    """Asymmetric-distance (ADC) PQ search: per query, one
    (m × k) int64 distance table to the codebooks; a candidate's
    approximate distance is the sum of ``m`` table lookups on its codes
    — no vector arithmetic per candidate, the layout that scans billions
    of compressed vectors per node.  Per-block top-k partials, tiny
    driver merge (same shape as :func:`ivf_query`); everything on the
    integer-micros grid so the SQL oracle is exact."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q_ids, q_emb = _query_vectors(ds, sf_dir, n_queries)
    adc = _pq_adc(ds, sf_dir, _emb_micros(q_emb), m, k, iters)

    def partial(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch["vec_id"], pa.int64()).to_numpy()
        return _block_topk(q_ids, ids, adc(_emb_micros(batch["embedding"])),
                           topk, "adc_d2")

    return _merge_topk(ds, partial, topk, "adc_d2")


def ivfpq_query(sf_dir: str, k_coarse: int = 8, coarse_iters: int = 3,
                m: int = 4, k: int = 8, iters: int = 2,
                n_queries: int = 8, nprobe: int = 2, topk: int = 10):
    """IVF-PQ: the billion-scale ANN layout — probe the ``nprobe``
    nearest coarse k-means cells, then rank ONLY cell-resident vectors
    by PQ asymmetric distance (m table lookups per candidate, no vector
    arithmetic).  A probe touches ~nprobe/k_coarse of the corpus and
    reads codes, not vectors.  Simplification vs textbook IVF-PQ: codes
    quantise the raw vectors, not the cell residuals (residuals would
    put the iterative trainings in sequence; the oracle stays exact
    either way and the access pattern — the part that matters at
    100 TB — is identical).  Deterministic on the integer-micros grid;
    exact unrolled-SQL oracle composes the two trainings."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q_ids, q_emb = _query_vectors(ds, sf_dir, n_queries)
    Q = _emb_micros(q_emb)
    probed = _ivf_probe(ds, sf_dir, Q, k_coarse, coarse_iters, nprobe)
    adc = _pq_adc(ds, sf_dir, Q, m, k, iters)

    def partial(batch: pa.Table) -> pa.Table:
        X = _emb_micros(batch["embedding"])
        ids = pc.cast(batch["vec_id"], pa.int64()).to_numpy()
        return _block_topk(q_ids, ids, adc(X), topk, "adc_d2",
                           mask=probed(X))

    return _merge_topk(ds, partial, topk, "adc_d2")


class LSHBucketStage:
    """Random-hyperplane LSH bucketing of embeddings (the scale path for
    ANN): bucket = sign bits of W·x.  Stateful: W drawn once per actor from
    a fixed seed."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 23):
        rng = np.random.default_rng(seed)
        self.W = rng.standard_normal((dim, n_planes))

    def codes(self, X: np.ndarray) -> np.ndarray:
        return ((X @ self.W) > 0) @ (1 << np.arange(self.W.shape[1]))

    def __call__(self, batch: pa.Table) -> pa.Table:
        bucket = self.codes(_embedding_matrix(batch["embedding"]))
        return pa.table({
            "vec_id": batch["vec_id"],
            "bucket": pa.array(bucket.astype(np.int64), pa.int64()),
        })


def ann_lsh_buckets(sf_dir: str, n_planes: int = 12):
    """LSH bucket table + per-bucket sizes (the partition layout an
    IVF/LSH ANN index would use at scale)."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    dim = _embedding_dim(sf_dir, ds)
    buckets = ds.map_batches(LSHBucketStage,
                             fn_constructor_kwargs=dict(dim=dim,
                                                        n_planes=n_planes),
                             batch_format="pyarrow", zero_copy_batch=True,
                             concurrency=default_concurrency())
    return (buckets.groupby("bucket").aggregate(Count(alias_name="n"))
            .sort("bucket"))


def ann_lsh_query(sf_dir: str, n_queries: int = 8, k: int = 10,
                  n_planes: int = 12, seed: int = 23, multiprobe: int = 1):
    """Approximate top-k neighbours via LSH bucket probing — the scale
    path complementing :func:`knn_bruteforce` (which scans every vector).

    The query vectors' buckets (plus all Hamming-``multiprobe`` neighbour
    buckets) are broadcast; each batch hashes its rows with the same
    seeded hyperplanes and computes similarities ONLY for rows landing in
    a probed bucket — at scale this touches |bucket| · (1 + planes ·
    multiprobe) vectors instead of all of them.  Output schema matches
    ``knn_bruteforce`` (query_id, rank, vec_id, sim_micro); recall is
    approximate by construction (no SQL oracle; recall bound tested in
    tests/test_ops.py)."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q_ids, q_emb = _query_vectors(ds, sf_dir, n_queries)
    Q = _embedding_matrix(q_emb)
    lsh = LSHBucketStage(Q.shape[1], n_planes, seed)
    probe: set[int] = set(int(b) for b in lsh.codes(Q))
    if multiprobe >= 1:
        for b in list(probe):
            for j in range(n_planes):
                probe.add(b ^ (1 << j))
    probe_ids = np.array(sorted(probe), np.int64)
    return _cosine_topk(ds, q_ids, Q, k,
                        row_filter=lambda X: np.isin(lsh.codes(X),
                                                     probe_ids))


@ray.remote(num_returns=2)
def _gathered_matrix(refs: list):
    """Concatenate + normalise the embedding blocks INSIDE a task: the
    broadcast matrix never materialises on the driver (its output lives in
    the object store and is read zero-copy-ish by the map tasks).  The
    second, tiny return is the (min, max) vec_id."""
    tables = [t for t in ray.get(list(refs)) if t.num_rows]
    full = pa.concat_tables(tables)
    ids_all = np.asarray(full["vec_id"].to_pylist(), np.int64)
    return ((ids_all, _cos_normalize(_embedding_matrix(full["embedding"]))),
            (int(ids_all.min()), int(ids_all.max())))


def _all_pairs_matrix(ds, op: str, max_rows: int, scale_path: str):
    """The guard + broadcast of the all-pairs baseline ops: refuse more
    than ``max_rows`` rows (naming the ``scale_path``), else return the
    refs of :func:`_gathered_matrix` — ``(None, None)`` for an empty
    table, which it cannot concat."""
    n_rows = ds.count()
    if n_rows > max_rows:
        raise ValueError(
            f"{op} is the all-pairs baseline, capped at {max_rows} rows "
            f"(got {n_rows}); {scale_path}")
    if n_rows == 0:
        return None, None
    return _gathered_matrix.remote(ds.to_arrow_refs())


def _empty_pairs() -> pa.Table:
    """The zero-row (a, b, sim_micro) table of the pair ops."""
    return pa.table({"a": pa.array([], pa.int64()),
                     "b": pa.array([], pa.int64()),
                     "sim_micro": pa.array([], pa.int64())})


def dedup_embedding_cosine(sf_dir: str, threshold_micro: int = 400_000,
                           max_rows: int = 2_000_000):
    """Embedding-cosine near-duplicate pairs: all (a < b) with cosine
    similarity ≥ threshold (exact integer micros, so the ≥ filter is an
    integer comparison on BOTH the engine and the SQL-oracle side — no
    float boundary ties).

    Baseline shape: the normalised embedding matrix is gathered + built
    inside a Ray task (never on the driver), broadcast once, and each
    block computes its rows × all-columns slab of the similarity matrix
    (numpy matmul), emitting only above-threshold pairs with a < b.  The
    O(N) broadcast and O(N²) compare make this the ≤``max_rows`` baseline
    ONLY — larger datasets must use :func:`dedup_embedding_lsh` (the
    bucketed scale path); this op refuses them instead of melting down."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    mat_ref, _ = _all_pairs_matrix(
        ds, "dedup_embedding_cosine", max_rows,
        "use dedup_embedding_lsh for the bucketed scale path")
    if mat_ref is None:
        return rd.from_arrow(_empty_pairs())

    def pairs(batch: pa.Table) -> pa.Table:
        from ..stages.util import cached_from_ref
        ids_a, m_norm = cached_from_ref(mat_ref)
        ids = np.asarray(batch["vec_id"].to_pylist(), np.int64)
        micros = _cos_micros(_cos_normalize(
            _embedding_matrix(batch["embedding"])), m_norm)   # (B, N)
        bi, aj = np.nonzero(micros >= threshold_micro)
        a_ids = ids[bi]
        b_ids = ids_a[aj]
        keep = a_ids < b_ids                         # dedup + drop self
        return pa.table({
            "a": pa.array(a_ids[keep], pa.int64()),
            "b": pa.array(b_ids[keep], pa.int64()),
            "sim_micro": pa.array(micros[bi, aj][keep], pa.int64()),
        })

    return ds.map_batches(pairs, batch_format="pyarrow",
                          batch_size=4096,
                          zero_copy_batch=True).sort(["a", "b"])


def knn_graph(sf_dir: str, k: int = 5, max_rows: int = 2_000_000):
    """Full k-nearest-neighbour GRAPH over the embedding table — every
    vector's ``k`` most-cosine-similar neighbours (the building block
    under graph clustering, kNN-graph ANN indexes and SemDeDup-style
    pruning analyses; :func:`knn_bruteforce` answers nq ad-hoc queries,
    this materialises the whole graph in one pass).

    Baseline shape, same contract as :func:`dedup_embedding_cosine`: the
    normalised matrix is built inside a Ray task, broadcast once, and
    each block ranks its rows against all columns — one GEMM plus one
    ``argpartition`` per block, emitting exactly k rows per vector, so
    the output is O(N·k) and the O(N²) similarity matrix never exists as
    data.  Guarded to ``max_rows``; past that the bucketed family
    (LSH / IVF cells) is the scale path with the identical exact rerank
    within buckets.  Ranks order by (sim_micro DESC, neighbour id ASC)
    on the integer-micros grid: the partition runs over the composite
    key ``micros·2³² + (2³²−1−id)`` so a micros tie AT the k-th boundary
    still cuts deterministically — and the SQL oracle's ``row_number``
    replays it exactly."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    mat_ref, id_span = _all_pairs_matrix(
        ds, "knn_graph", max_rows,
        "bucket with dedup_embedding_lsh / kmeans_ivf_assign and rerank "
        "within buckets at scale")
    empty = _empty_pairs().add_column(1, "rank", pa.array([], pa.int64()))
    if mat_ref is None:
        return rd.from_arrow(empty)
    _ID32 = np.int64((1 << 32) - 1)
    lo, hi = ray.get(id_span)
    if lo < 0 or hi > _ID32:
        raise ValueError(f"knn_graph's composite rank key needs "
                         f"0 <= vec_id < 2^32 (got {lo}..{hi})")

    def topk(batch: pa.Table) -> pa.Table:
        from ..stages.util import cached_from_ref
        ids_all, m_norm = cached_from_ref(mat_ref)
        ids = np.asarray(batch["vec_id"].to_pylist(), np.int64)
        micros = _cos_micros(_cos_normalize(
            _embedding_matrix(batch["embedding"])), m_norm)   # (B, N)
        comp = micros * (_ID32 + 1) + (_ID32 - ids_all[None, :])
        comp[ids[:, None] == ids_all[None, :]] = np.int64(-(1 << 62))
        kk = min(k, comp.shape[1] - 1)
        if kk <= 0:
            return empty
        part = np.argpartition(-comp, kk - 1, axis=1)[:, :kk]
        pcomp = np.take_along_axis(comp, part, axis=1)
        order = np.argsort(-pcomp, axis=1, kind="stable")
        sel = np.take_along_axis(part, order, axis=1)
        n = len(ids)
        return pa.table({
            "a": pa.array(np.repeat(ids, kk), pa.int64()),
            "rank": pa.array(np.tile(np.arange(1, kk + 1, dtype=np.int64),
                                     n), pa.int64()),
            "b": pa.array(ids_all[sel].reshape(-1), pa.int64()),
            "sim_micro": pa.array(
                np.take_along_axis(micros, sel, axis=1).reshape(-1),
                pa.int64()),
        })

    return ds.map_batches(topk, batch_format="pyarrow", batch_size=4096,
                          zero_copy_batch=True).sort(["a", "rank"])


class LSHTableStage:
    """``n_tables`` independent random-hyperplane LSH codes per vector —
    the bucketing stage of the embedding-dedup scale path, emitting
    (table_id, bucket, vec_id) rows only: no vector payload rides the
    ×n_tables bucket exchange.  Stateful: the (dim, n_tables·n_planes)
    plane matrix is drawn once per actor from a fixed seed, so every
    worker buckets identically."""

    def __init__(self, dim: int, n_planes: int = 4, n_tables: int = 32,
                 seed: int = 41):
        rng = np.random.default_rng(seed)
        self.W = rng.standard_normal((dim, n_tables * n_planes))
        self.n_planes = n_planes
        self.n_tables = n_tables

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        X = _embedding_matrix(batch["embedding"], np.float32) \
            .astype(np.float64)
        bits = (X @ self.W) > 0
        codes = bits.reshape(n, self.n_tables, self.n_planes) \
            @ (1 << np.arange(self.n_planes))
        rep = np.repeat(np.arange(n), self.n_tables)
        return pa.table({
            "table_id": pa.array(
                np.tile(np.arange(self.n_tables, dtype=np.int32), n),
                pa.int32()),
            "bucket": pa.array(codes.reshape(-1).astype(np.int64),
                               pa.int64()),
            "vec_id": batch.column("vec_id").take(pa.array(rep)),
        })


def _segment_pairs(vals: np.ndarray, seg: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """All unordered within-segment pairs of ``vals`` (sorted ascending
    inside each segment, so a < b holds), fully vectorised — the
    segment-triu expansion: element at in-segment position k pairs with
    the (size-1-k) elements after it."""
    n = len(vals)
    if n == 0:
        return np.empty(0, vals.dtype), np.empty(0, vals.dtype)
    change = np.flatnonzero(seg[1:] != seg[:-1]) + 1
    starts = np.concatenate([[0], change])
    sizes = np.diff(np.concatenate([starts, [n]]))
    pos = np.arange(n) - np.repeat(starts, sizes)
    cnt = np.repeat(sizes, sizes) - 1 - pos
    total = int(cnt.sum())
    if total == 0:
        return np.empty(0, vals.dtype), np.empty(0, vals.dtype)
    a_idx = np.repeat(np.arange(n), cnt)
    cum = np.concatenate([[0], np.cumsum(cnt)[:-1]])
    off = np.arange(total) - np.repeat(cum, cnt) + 1
    return vals[a_idx], vals[a_idx + off]


def _lsh_candidate_pairs(coded_ids):
    """Distinct (a, b) id pairs sharing ≥1 (table, bucket) — ids only,
    no vector payload crosses either exchange.  Buckets are grouped
    under a COARSE hash key (deep codes mean n_tables·2^b tiny buckets;
    one Python map_groups call per bucket was the dominant cost), and a
    vectorised segment-triu kernel expands every bucket in the group at
    once."""
    n_groups = max(64, 4 * _join_partitions())

    def tag(t: pa.Table) -> pa.Table:
        tb = t.column("table_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        bk = t.column("bucket").to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            gk = _coarse_key((tb << np.int64(40)) | bk, n_groups)
        return t.append_column("gk", pa.array(gk, pa.int64()))

    def bucket_cands(group: dict) -> dict:
        t = np.asarray(group["table_id"], np.int64)
        b = np.asarray(group["bucket"], np.int64)
        v = np.asarray(group["vec_id"], np.int64)
        order = np.lexsort((v, b, t))
        t, b, v = t[order], b[order], v[order]
        keep = np.ones(len(v), bool)        # exact-dup (t,b,v) rows out
        keep[1:] = ((t[1:] != t[:-1]) | (b[1:] != b[:-1])
                    | (v[1:] != v[:-1]))
        t, b, v = t[keep], b[keep], v[keep]
        seg = np.zeros(len(v), np.int64)
        if len(v):
            seg[1:] = np.cumsum((t[1:] != t[:-1]) | (b[1:] != b[:-1]))
        a, bb = _segment_pairs(v, seg)
        return {"a": a, "b": bb}

    # the grouped aggregate can emit schema-less empty blocks that poison
    # every downstream union/concat — see _coalesce_schema_less
    return _coalesce_schema_less(
        coded_ids.map_batches(tag, batch_format="pyarrow",
                              zero_copy_batch=True)
        .groupby("gk")
        .map_groups(bucket_cands, batch_format="numpy")
        .groupby(["a", "b"]).aggregate(Count(alias_name="_n"))
        .select_columns(["a", "b"]))


def _binary_rows_to_f32(arr: pa.Array, n: int) -> np.ndarray:
    """(n, dim) float32 matrix from a fixed-width binary column — one
    vectorised gather over the values buffer, no per-row Python."""
    arr = arr.combine_chunks() if isinstance(arr, pa.ChunkedArray) else arr
    offs = np.frombuffer(arr.buffers()[1], np.int32)[
        arr.offset:arr.offset + n + 1]
    vals = np.frombuffer(arr.buffers()[2], np.uint8)
    width = int(offs[1] - offs[0]) if n else 0
    idx = offs[:-1, None].astype(np.int64) + np.arange(width)[None, :]
    return vals[idx].view(np.float32)


def _verify_cosine_pairs(sf_dir: str, pairs, threshold_micro: int):
    """Exact-cosine verification of candidate id pairs: the
    :func:`_pair_gather` with each vector's raw float32 bytes as the
    payload (fixed-width binary survives exchanges that reject
    list<float> payloads, and reassembles with one gather), then one
    float64 kernel per coarse ``hash(a, b)`` group computes every
    cosine.  Vector bytes move once for the corpus plus once per pair
    side — never ×n_tables."""
    n_groups = max(64, 4 * _join_partitions())

    def emb_rows(t: pa.Table) -> pa.Table:
        X = _embedding_matrix(t["embedding"], np.float32)
        step = (X.shape[1] if X.size else 0) * 4
        vbin = pa.Array.from_buffers(
            pa.binary(), t.num_rows,
            [None, pa.py_buffer(np.arange(t.num_rows + 1,
                                          dtype=np.int32) * step),
             pa.py_buffer(np.ascontiguousarray(X).tobytes())])
        return pa.table({"vec_id": t.column("vec_id"), "vbin": vbin})

    def verify(g: pa.Table) -> pa.Table:
        is_b = g.column("is_b").to_numpy(zero_copy_only=False)
        a = g.column("a").to_numpy(zero_copy_only=False)
        b = g.column("b").to_numpy(zero_copy_only=False)
        V = _binary_rows_to_f32(g.column("payload"), g.num_rows) \
            .astype(np.float64)       # float64 BEFORE normalising —
        # matches the all-pairs kernel bit-for-bit
        o0 = np.lexsort((b[~is_b], a[~is_b]))
        o1 = np.lexsort((b[is_b], a[is_b]))
        pa_ = a[~is_b][o0]
        pb_ = b[~is_b][o0]
        micros = _cos_micros(_cos_normalize(V[~is_b][o0]),
                             _cos_normalize(V[is_b][o1]), rowwise=True)
        keep = micros >= threshold_micro
        return pa.table({
            "a": pa.array(pa_[keep], pa.int64()),
            "b": pa.array(pb_[keep], pa.int64()),
            "sim_micro": pa.array(micros[keep], pa.int64()),
        })

    embs = read_table(sf_dir, "embeddings",
                      columns=["vec_id", "embedding"]) \
        .map_batches(emb_rows, batch_format="pyarrow", zero_copy_batch=True)
    emb_schema = pa.schema([("vec_id", pa.int64()), ("vbin", pa.binary())])
    return _pair_gather((embs, emb_schema), "vec_id", pairs, n_groups,
                        lambda t: t.column("vbin").combine_chunks(), verify)


def dedup_embedding_lsh(sf_dir: str, threshold_micro: int = 400_000,
                        n_planes: int = 4, n_tables: int = 32,
                        seed: int = 41):
    """Embedding-cosine near-duplicate pairs via LSH bucketing — the
    100 TB scale path for :func:`dedup_embedding_cosine` (same output,
    same exact integer-micros threshold, no all-pairs matmul and no
    broadcast of the full matrix):

    1. each vector is coded into ``n_tables`` independent ``n_planes``-bit
       hyperplane buckets (actor-pool ``map_batches``);
    2. the bucket exchange moves (table_id, bucket, vec_id) rows ONLY
       (≈20 bytes ×L per vector, never the vector payload ×L) and emits
       the distinct candidate pairs sharing ≥1 bucket
       (:func:`_lsh_candidate_pairs`);
    3. every candidate is verified with the exact float64 cosine
       (:func:`_verify_cosine_pairs`), so false bucket collisions cost
       compute, never correctness — only a pair landing in no shared
       bucket can be lost.

    Recall is 1 - (1 - p^b)^L with p = 1 - angle/π.  The defaults
    (b=4, L=32, seed 41) give measured recall 1.0 at threshold 0.4 on the
    test corpora (verified pair-exact vs the all-pairs SQL oracle —
    tests/test_ops.py); production near-dup thresholds (sim ≥ 0.85) want
    deeper codes (b 12-16, L 8-16) so buckets shrink to ~N/2^b and the
    candidate volume per vector stays ≈ L·bucket."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    if ds.count() == 0:                   # parquet metadata, no scan
        return rd.from_arrow(_empty_pairs())
    coded_ids = ds.map_batches(
        LSHTableStage,
        fn_constructor_kwargs=dict(dim=_embedding_dim(sf_dir, ds),
                                   n_planes=n_planes, n_tables=n_tables,
                                   seed=seed),
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=default_concurrency())
    return _verify_cosine_pairs(sf_dir, _lsh_candidate_pairs(coded_ids),
                                threshold_micro).sort(["a", "b"])


def semantic_dedup(sf_dir: str, k: int = 8, iters: int = 3,
                   threshold_micro: int = 400_000, n_coarse: int = 64):
    """SemDeDup-style semantic deduplication (Abbas et al. 2023,
    "SemDeDup: Data-efficient learning at web-scale through semantic
    deduplication"): cluster the embeddings with the shared
    integer-micros k-means quantizer, then WITHIN each cell drop every
    vector that has a lower-``vec_id`` cell-mate with cosine similarity
    ≥ threshold.  The keep rule is deterministic and purely local to the
    cell — drop b iff ∃ a < b in the same cell with sim(a, b) ≥ θ — so
    the DuckDB oracle replays it exactly (unrolled Lloyd CTEs for the
    assignment + a within-cell self-join, both already hash-proven by
    :func:`kmeans_ivf_assign` / :func:`dedup_embedding_cosine`).

    Scale shape: clustering reuses the cached per-process centroids
    (one combiner pass per Lloyd iteration, driver folds k×dim ints);
    the ONE shuffle co-locates cells under COARSE ``hash(cluster_id)``
    groups — Python runs O(n_coarse) times, never once per cell — and
    the within-cell O(|cell|²·dim) matmul is the quadratic SemDeDup
    accepts by sizing k so cells stay ~10³-10⁴ vectors (at 100 TB: k
    grows with N, per-cell cost stays bounded, and the pairwise compare
    never leaves the cell — no global all-pairs, no full-matrix
    broadcast)."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    C = _pq_codebooks(ds, sf_dir, 1, k, iters)[0]

    def assign(batch: pa.Table) -> pa.Table:
        X = _emb_micros(batch["embedding"])
        a, _ = _kmeans_assign(X, C)
        cid = a.astype(np.int64)
        return pa.table({
            "gk": pa.array(_coarse_key(cid, n_coarse), pa.int64()),
            "cluster_id": pa.array(cid, pa.int64()),
            "vec_id": pc.cast(batch.column("vec_id"), pa.int64()),
            "embedding": batch.column("embedding"),
        })

    def cell_keep(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "vec_id" not in group.column_names:
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "cluster_id": pa.array([], pa.int64()),
                "keep": pa.array([], pa.int64())})
        cid = group.column("cluster_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        vid = group.column("vec_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        # float64 BEFORE normalising — the proven micro-rounding parity
        # contract of the all-pairs kernel (dedup_embedding_cosine)
        X = _embedding_matrix(group["embedding"])
        order = np.lexsort((vid, cid))
        cid, vid = cid[order], vid[order]
        Xn, zero = _cos_normalize(X[order])
        drop = np.zeros(len(vid), bool)
        bounds = np.concatenate([
            [0], np.flatnonzero(cid[1:] != cid[:-1]) + 1, [len(cid)]])
        # Python loop over CELLS in this coarse group: each iteration is
        # one dense GEMM over the cell, so the loop overhead is amortised
        # by O(|cell|²·dim) real work
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s < 2:
                continue
            cell = (Xn[s:e], zero[s:e])
            hit = _cos_micros(cell, cell) >= threshold_micro
            # vec_id ascending within the cell ⇒ "any strictly-lower
            # index hits" == "any lower vec_id hits"
            drop[s:e] = np.tril(hit, -1).any(axis=1)
        return pa.table({
            "vec_id": pa.array(vid, pa.int64()),
            "cluster_id": pa.array(cid, pa.int64()),
            "keep": pa.array((~drop).astype(np.int64), pa.int64()),
        })

    return (ds.map_batches(assign, batch_format="pyarrow",
                           batch_size=2048, zero_copy_batch=True)
            .groupby("gk")
            .map_groups(cell_keep, batch_format="pyarrow")
            .sort("vec_id"))


# ---------------------------------------------------------------------------
# relational / streaming-style queries over the TPC-H-ish tables
# ---------------------------------------------------------------------------

def _cents(col, factor: float = 100.0) -> pa.Array:
    """Exact integer cents: round-half-away like SQL round(), cast to int64.
    Integer sums are order-independent, so distributed aggregation hashes
    identically to the DuckDB oracle."""
    scaled = pc.multiply(pc.cast(col, pa.float64()), pa.scalar(factor))
    return pc.cast(pc.round(scaled, 0,
                            round_mode="half_towards_infinity"),
                   pa.int64())


def pricing_summary_exact(sf_dir: str):
    """TPC-H Q1-style aggregate over lineitem.  Money columns are summed as
    exact integer cents (see :func:`_cents`); Ray's hash aggregate performs
    the partial per-block combine before the shuffle."""
    ds = read_table(sf_dir, "lineitem",
                    columns=["l_returnflag", "l_linestatus", "l_quantity",
                             "l_extendedprice", "l_discount"])

    def prep(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t.column("l_extendedprice"),
                          pc.subtract(pa.scalar(1.0),
                                      t.column("l_discount")))
        return pa.table({
            "l_returnflag": t.column("l_returnflag"),
            "l_linestatus": t.column("l_linestatus"),
            "qty": pc.cast(t.column("l_quantity"), pa.int64()),
            "base_cents": _cents(t.column("l_extendedprice")),
            "disc_cents": _cents(rev),
        })

    ds = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return (ds.groupby(["l_returnflag", "l_linestatus"])
            .aggregate(Sum("qty", alias_name="sum_qty"),
                       Sum("base_cents", alias_name="sum_base_price_cents"),
                       Sum("disc_cents", alias_name="sum_disc_price_cents"),
                       Count(alias_name="count_order"))
            .sort(["l_returnflag", "l_linestatus"])
            .select_columns(["l_returnflag", "l_linestatus", "sum_qty",
                             "sum_base_price_cents", "sum_disc_price_cents",
                             "count_order"]))


def revenue_by_segment_exact(sf_dir: str):
    """Broadcast join: customer (small side) is ray.put once as Arrow
    arrays and probed per batch with ``pc.index_in`` + ``take`` — a
    vectorised hash probe (no per-row Python), never a shuffle join."""
    cust = _to_arrow(read_table(sf_dir, "customer",
                                columns=["c_custkey", "c_mktsegment"]))
    seg_ref = ray.put((cust["c_custkey"].combine_chunks(),
                       cust["c_mktsegment"].combine_chunks()))
    orders = read_table(sf_dir, "orders",
                        columns=["o_custkey", "o_totalprice"])

    def join(batch: pa.Table) -> pa.Table:
        from ..stages.util import cached_from_ref
        keys, vals = cached_from_ref(seg_ref)
        idx = pc.index_in(batch.column("o_custkey"), value_set=keys)
        t = pa.table({
            "c_mktsegment": vals.take(idx),    # null where key missing
            "price_cents": _cents(batch.column("o_totalprice")),
        })
        return t.filter(pc.is_valid(t.column("c_mktsegment")))

    joined = orders.map_batches(join, batch_format="pyarrow",
                                zero_copy_batch=True)
    return (joined.groupby("c_mktsegment")
            .aggregate(Sum("price_cents", alias_name="total_revenue_cents"),
                       Count(alias_name="n_orders"))
            .sort("c_mktsegment")
            .select_columns(["c_mktsegment", "total_revenue_cents",
                             "n_orders"]))


def revenue_by_segment_join(sf_dir: str):
    """Shuffle hash-join variant of :func:`revenue_by_segment_exact`
    (``Dataset.join``) — the big-side × big-side shape for when neither
    input fits in worker memory; the broadcast variant stays the right
    choice whenever one side is small.  Identical output/oracle."""
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_mktsegment"])
    orders = read_table(sf_dir, "orders",
                        columns=["o_custkey", "o_totalprice"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": t.column("o_custkey"),
            "price_cents": _cents(t.column("o_totalprice")),
        })

    joined = orders.map_batches(prep, batch_format="pyarrow",
                                zero_copy_batch=True) \
        .join(cust, join_type="inner",
              num_partitions=_join_partitions(),
              on=("o_custkey",), right_on=("c_custkey",))
    return (joined.groupby("c_mktsegment")
            .aggregate(Sum("price_cents", alias_name="total_revenue_cents"),
                       Count(alias_name="n_orders"))
            .sort("c_mktsegment")
            .select_columns(["c_mktsegment", "total_revenue_cents",
                             "n_orders"]))


def events_sliding_window(sf_dir: str, window_min: int = 60,
                          slide_min: int = 15):
    """Sliding-window aggregate per event type: 60-minute windows sliding
    every 15 minutes (each event lands in window_min/slide_min windows —
    the fan-out is a vectorised per-batch replication, the aggregation one
    grouped exchange).  Window starts are epoch-aligned integer
    microseconds so the engine and the SQL oracle hash identically."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])
    slide_us = slide_min * 60 * 1_000_000
    n_win = window_min // slide_min

    def fan_out(t: pa.Table) -> pa.Table:
        micros = pc.cast(t.column("ts").cast(pa.timestamp("us")),
                         pa.int64())
        # integer floor-division (timestamps are post-epoch, so truncation
        # == floor) — no float rounding anywhere near the hash
        base = pc.multiply(pc.divide(micros, pa.scalar(slide_us)),
                           pa.scalar(slide_us))
        vals = _cents(t.column("value"), 1000.0)
        n = t.num_rows
        idx = np.repeat(np.arange(n), n_win)
        k = np.tile(np.arange(n_win, dtype=np.int64), n)
        base_np = base.to_numpy(zero_copy_only=False)
        return pa.table({
            "event_type": t.column("event_type").take(pa.array(idx)),
            "window_start_us": pa.array(base_np[idx] - k * slide_us,
                                        pa.int64()),
            "value_mil": vals.take(pa.array(idx)),
        })

    return (ds.map_batches(fan_out, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby(["event_type", "window_start_us"])
            .aggregate(Count(alias_name="n_events"),
                       Sum("value_mil", alias_name="sum_value_mil"))
            .sort(["event_type", "window_start_us"])
            .select_columns(["event_type", "window_start_us", "n_events",
                             "sum_value_mil"]))


def top_orders(sf_dir: str, k: int = 10):
    """Global top-k by price (tie-broken by key for determinism)."""
    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"],
                   descending=[True, False]).limit(k)


def events_hourly_exact(sf_dir: str):
    """Tumbling 1-hour window aggregate per user (stream-shaped workload
    expressed as groupby over (user, window) — ray_guide streaming section)."""
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "ts", "value"])

    def add_window(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t.column("user_id"),
            # timestamp[us] so the hashed dtype matches DuckDB date_trunc
            "window_start": pc.floor_temporal(t.column("ts"), unit="hour")
                .cast(pa.timestamp("us")),
            "value_mil": _cents(t.column("value"), 1000.0),
        })

    ds = ds.map_batches(add_window, batch_format="pyarrow",
                        zero_copy_batch=True)

    def fix_unit(t: pa.Table) -> pa.Table:
        # Ray's hash aggregate narrows the timestamp key to [s]; restore
        # [us] so the hashed dtype matches DuckDB date_trunc.
        i = t.schema.get_field_index("window_start")
        return t.set_column(i, "window_start",
                            t.column("window_start").cast(pa.timestamp("us")))

    return (ds.groupby(["user_id", "window_start"])
            .aggregate(Count(alias_name="n_events"),
                       Sum("value_mil", alias_name="sum_value_mil"))
            .sort(["user_id", "window_start"])
            .select_columns(["user_id", "window_start", "n_events",
                             "sum_value_mil"])
            .map_batches(fix_unit, batch_format="pyarrow",
                         zero_copy_batch=True))


def sessionize(sf_dir: str, gap_minutes: int = 30,
               bucket_hours: int = 24):
    """Session windows per user: a new session starts after a gap of more
    than ``gap_minutes``.  Ties broken by event_id so the session
    numbering is deterministic and matches the SQL oracle.

    Skew-safe two-pass build (a bare ``groupby(user_id)`` makes one
    pathological user an unbounded group — the same fix as the annotate
    stage's ``(conv_id, turn_idx // W)`` window key):

    1. events are grouped by a COARSE hash of ``(user_id, ts-bucket)``
       (``bucket_hours`` wide), so a hot user's rows spread across many
       bounded groups; a vectorised pandas kernel emits per-session
       summary rows (user, start, end, n_events) within each group;
    2. summaries — O(#sessions), tiny — are stitched per user: adjacent
       sessions whose boundary gap is ≤ ``gap_minutes`` merge (interval
       adjacency is transitive, so bucket-spanning sessions collapse to
       exactly the single-pass result), then renumbered by start time.

    Both passes run over coarse hash groups, so per-group size is bounded
    by the time bucket, never by one user's total volume, and Python is
    entered O(n_groups) times."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    n_groups = max(64, 4 * _join_partitions())
    gap_td = pd.Timedelta(minutes=gap_minutes)

    def tag(t: pa.Table) -> pa.Table:
        uid = t.column("user_id").combine_chunks()
        # stable user key: ids may be strings — hash via index-free md5?
        # user_id in the events table is int64; fall back to a cast
        u = pc.cast(uid, pa.int64()).to_numpy(zero_copy_only=False)
        ts = t.column("ts").combine_chunks()
        micros = pc.cast(ts, pa.int64()).to_numpy(zero_copy_only=False)
        bucket = micros // (bucket_hours * 3_600_000_000)
        with np.errstate(over="ignore"):
            gk = _coarse_key(u * np.int64(1_000_003) + bucket, n_groups)
        return t.append_column("gk", pa.array(gk, pa.int64()))

    def bucket_sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap = g["ts"].diff() > gap_td
        sid = (new_user | gap).cumsum()
        out = g.groupby(sid, sort=True).agg(
            user_id=("user_id", "first"),
            n_events=("event_id", "size"),
            start_ts=("ts", "min"),
            end_ts=("ts", "max")).reset_index(drop=True)
        out["sk"] = _coarse_key(
            out["user_id"].to_numpy(np.int64), n_groups)
        return out

    def stitch(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "start_ts", "end_ts"])
        new_user = g["user_id"].ne(g["user_id"].shift())
        # running-max end per user (intervals from different coarse
        # groups may nest): the textbook threshold interval-merge
        run_end = g.groupby("user_id", sort=False)["end_ts"].cummax()
        gap = (g["start_ts"] - run_end.shift()) > gap_td
        sid = (new_user | gap).cumsum()
        out = g.groupby(sid, sort=True).agg(
            user_id=("user_id", "first"),
            n_events=("n_events", "sum"),
            start_ts=("start_ts", "min"),
            end_ts=("end_ts", "max")).reset_index(drop=True)
        out["session_id"] = (out.groupby("user_id").cumcount()
                             + 1).astype("int64")
        return out[["user_id", "session_id", "n_events",
                    "start_ts", "end_ts"]]

    return (ds.map_batches(tag, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("gk").map_groups(bucket_sessions,
                                      batch_format="pandas")
            .groupby("sk").map_groups(stitch, batch_format="pandas")
            .sort(["user_id", "session_id"]))


def asof_join(sf_dir: str, left_type: str = "purchase",
              right_type: str = "click", bucket_hours: int = 24):
    """As-of join (inner): for each ``left_type`` event, the same user's
    latest ``right_type`` event with ``right.ts <= left.ts``.  Ties at
    equal ``ts`` match (``<=`` semantics) and resolve to the largest
    ``event_id`` — fully deterministic, so the DuckDB window-function
    oracle hashes identically.

    Skew-capped distributed build (a bare ``groupby(user_id)`` makes one
    hot user an unbounded group; same cure as ``sessionize``):

    1. rows are grouped by a COARSE hash of ``(user_id, ts-bucket)``
       (``bucket_hours`` wide).  A vectorised kernel emits per
       ``(user, bucket)`` summary rows: the last right event in the
       bucket, plus a marker for buckets containing left events.
    2. summaries — O(#active user-buckets), tiny — are stitched per
       user-hash group: every left-marked bucket gets a CARRY row, the
       latest right event from any strictly-earlier bucket (a sorted
       forward-fill; the nearest earlier right-containing bucket's last
       right IS the global latest, because buckets partition time).
    3. the carry rows, keyed by their left bucket, are co-grouped
       (:func:`_cogroup`) with the tagged events; the match kernel pairs
       each left row with in-bucket rights ∪ its carry via a per-group
       forward-fill — within-group work is a sort + two ffills, no
       Python row loop.

    Three exchanges total (two full grouped passes over the
    column-pruned two-type slice + one tiny summary stitch); group size
    is bounded by the time bucket, never by a user's volume; no
    broadcast, no driver-side loop.  The tagged input is built twice
    (summaries branch + match branch) — re-running a pruned read is
    cheaper at scale than materialising the slice mid-pipeline."""
    n_groups = max(64, 4 * _join_partitions())
    bucket_us = np.int64(bucket_hours) * np.int64(3_600_000_000)

    def tagged():
        ds = read_table(sf_dir, "events",
                        columns=["event_id", "user_id", "ts", "event_type"])

        def tag(t: pa.Table) -> pa.Table:
            et = t.column("event_type")
            t = t.filter(pc.or_(pc.equal(et, left_type),
                                pc.equal(et, right_type)))
            u = pc.cast(t.column("user_id"), pa.int64())
            ts_us = pc.cast(t.column("ts").cast(pa.timestamp("us")),
                            pa.int64())
            il = pc.cast(pc.equal(t.column("event_type"), left_type),
                         pa.int8())
            u_np = u.to_numpy(zero_copy_only=False)
            ts_np = ts_us.to_numpy(zero_copy_only=False)
            bucket = ts_np // bucket_us
            with np.errstate(over="ignore"):
                ub = u_np * np.int64(1_000_003) + bucket
            return pa.table({
                "u": u,
                "ts_us": pa.array(ts_np, pa.int64()),
                "eid": pc.cast(t.column("event_id"), pa.int64()),
                "il": il,
                "bucket": pa.array(bucket, pa.int64()),
                "ub": pa.array(ub, pa.int64()),
                "gk": pa.array(_coarse_key(ub, n_groups), pa.int64()),
            })

        return ds.map_batches(tag, batch_format="pyarrow",
                              zero_copy_batch=True)

    def summarize(g: pd.DataFrame) -> pd.DataFrame:
        parts = []
        rights = g[g["il"] == 0]
        if len(rights):
            r = (rights.sort_values(["ts_us", "eid"])
                 .groupby(["u", "bucket"], sort=False)
                 .last().reset_index())
            parts.append(pd.DataFrame({
                "u": r["u"], "bucket": r["bucket"],
                "r_ts": r["ts_us"], "r_id": r["eid"],
                "kind": np.int8(0)}))
        lefts = g.loc[g["il"] == 1, ["u", "bucket"]].drop_duplicates()
        if len(lefts):
            parts.append(pd.DataFrame({
                "u": lefts["u"], "bucket": lefts["bucket"],
                "r_ts": np.int64(-1), "r_id": np.int64(-1),
                "kind": np.int8(1)}))
        if not parts:
            return pd.DataFrame({"u": pd.Series(dtype="int64"),
                                 "bucket": pd.Series(dtype="int64"),
                                 "r_ts": pd.Series(dtype="int64"),
                                 "r_id": pd.Series(dtype="int64"),
                                 "kind": pd.Series(dtype="int8"),
                                 "sk": pd.Series(dtype="int64")})
        out = pd.concat(parts, ignore_index=True)
        out["sk"] = _coarse_key(out["u"].to_numpy(np.int64), n_groups)
        return out

    def stitch(g: pd.DataFrame) -> pd.DataFrame:
        # kind descending: a bucket's left marker sorts BEFORE its own
        # right summary, so the forward-fill it reads comes from strictly
        # earlier buckets only.
        g = g.sort_values(["u", "bucket", "kind"],
                          ascending=[True, True, False])
        rid = g["r_id"].where(g["kind"] == 0)
        rts = g["r_ts"].where(g["kind"] == 0)
        c_id = rid.groupby(g["u"], sort=False).ffill()
        c_ts = rts.groupby(g["u"], sort=False).ffill()
        m = (g["kind"] == 1) & c_id.notna()
        u = g.loc[m, "u"].to_numpy(np.int64)
        bucket = g.loc[m, "bucket"].to_numpy(np.int64)
        with np.errstate(over="ignore"):
            ub = u * np.int64(1_000_003) + bucket
        return pd.DataFrame({
            "u": u,
            "ts_us": c_ts[m].to_numpy(np.int64),
            "eid": c_id[m].to_numpy(np.int64),
            "il": np.zeros(len(u), np.int8),   # a carry acts as a right
            "ub": ub})

    def match(events: pa.Table, carries: pa.Table) -> pd.DataFrame:
        # rights (il=0, incl. carries) before lefts at equal ts = "<="
        # semantics; max event_id wins a right-side tie via the ffill.
        g = pa.concat_tables([events, carries]).to_pandas() \
            .sort_values(["u", "ts_us", "il", "eid"])
        rid = g["eid"].where(g["il"] == 0)
        rts = g["ts_us"].where(g["il"] == 0)
        c_id = rid.groupby(g["u"], sort=False).ffill()
        c_ts = rts.groupby(g["u"], sort=False).ffill()
        m = (g["il"] == 1) & c_id.notna()
        return pd.DataFrame({
            "user_id": g.loc[m, "u"].to_numpy(np.int64),
            "left_id": g.loc[m, "eid"].to_numpy(np.int64),
            "left_ts_us": g.loc[m, "ts_us"].to_numpy(np.int64),
            "right_id": c_id[m].to_numpy(np.int64),
            "right_ts_us": c_ts[m].to_numpy(np.int64)})

    # consolidate schema-less empties before the co-group
    # (_coalesce_schema_less)
    carries = _coalesce_schema_less(
        tagged()
        .groupby("gk").map_groups(summarize, batch_format="pandas")
        .groupby("sk").map_groups(stitch, batch_format="pandas"),
        n_parts=8)

    def finish(t: pa.Table) -> pa.Table:
        lts = t.column("left_ts_us")
        rts = t.column("right_ts_us")
        return pa.table({
            "user_id": t.column("user_id"),
            "left_id": t.column("left_id"),
            "left_ts": lts.cast(pa.timestamp("us")),
            "right_id": t.column("right_id"),
            "right_ts": rts.cast(pa.timestamp("us")),
            "lag_us": pc.subtract(lts, rts),
        })

    match_schema = pa.schema([("u", pa.int64()), ("ts_us", pa.int64()),
                              ("eid", pa.int64()), ("il", pa.int8()),
                              ("ub", pa.int64())])
    return (_cogroup((tagged(), match_schema), (carries, match_schema),
                     "ub", n_groups, match)
            .sort(["user_id", "left_id"])
            .map_batches(finish, batch_format="pyarrow",
                         zero_copy_batch=True))


def range_join(sf_dir: str, left_type: str = "error",
               window_hours: int = 24):
    """Time-range self join: every ``left_type`` event paired with ALL of
    the same user's events in the preceding ``window_hours``
    (``right.ts in [left.ts - W, left.ts)`` — the strict upper bound
    excludes self-pairs and equal-ts rows deterministically).

    A naive keyed join explodes on hot users; Ray Data has no interval
    join.  Bucket-replication makes it ONE bounded grouped exchange:

    * time is cut into ``W``-wide buckets, so a left row's window spans
      at most its own bucket and the previous one.  Every event is
      emitted as a RIGHT-side row into its own bucket AND the next
      (2× fan-out, independent of window density); left rows go to their
      own bucket only — each qualifying (left, right) pair therefore
      meets in exactly one coarse ``(user, bucket)`` hash group, so no
      dedup pass is needed.
    * within a group, users are densified (``np.unique``) so
      ``dense_user * span + (ts_us - min_ts)`` is one sortable int64 key
      (``span`` exceeds the group's time range by more than ``W``, so no
      window reaches into the previous user's keys); a sorted
      ``searchsorted`` pair per left row yields [lo, hi) right-segments,
      expanded to pairs with the standard vectorised segment-arange —
      no Python row loop.

    Group size is bounded by per-user traffic in one time bucket (the
    same cap as ``sessionize``/``asof_join``), the exchange carries
    16 B/row ids, and skew never exceeds 2× the densest bucket."""
    n_groups = max(64, 4 * _join_partitions())
    w_us = np.int64(window_hours) * np.int64(3_600_000_000)

    ds = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "event_type"])

    def fan_out(t: pa.Table) -> pa.Table:
        u = pc.cast(t.column("user_id"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ts = pc.cast(t.column("ts").cast(pa.timestamp("us")), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        eid = pc.cast(t.column("event_id"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        is_l = pc.equal(t.column("event_type"), left_type) \
            .to_numpy(zero_copy_only=False)
        bucket = ts // w_us
        # rights: every event, into its own bucket and the next
        ru = np.concatenate([u, u])
        rts = np.concatenate([ts, ts])
        rid = np.concatenate([eid, eid])
        rb = np.concatenate([bucket, bucket + 1])
        il = np.zeros(2 * len(u), np.int8)
        # lefts: only left_type rows, own bucket
        lu, lts, lid, lb = u[is_l], ts[is_l], eid[is_l], bucket[is_l]
        au = np.concatenate([ru, lu])
        ats = np.concatenate([rts, lts])
        aid = np.concatenate([rid, lid])
        ab = np.concatenate([rb, lb])
        ail = np.concatenate([il, np.ones(len(lu), np.int8)])
        with np.errstate(over="ignore"):
            gk = _coarse_key(au * np.int64(1_000_003) + ab, n_groups)
        return pa.table({
            "u": pa.array(au, pa.int64()),
            "ts_us": pa.array(ats, pa.int64()),
            "eid": pa.array(aid, pa.int64()),
            "il": pa.array(ail, pa.int8()),
            "bucket": pa.array(ab, pa.int64()),
            "gk": pa.array(gk, pa.int64()),
        })

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"user_id": pd.Series(dtype="int64"),
                              "left_id": pd.Series(dtype="int64"),
                              "right_id": pd.Series(dtype="int64"),
                              "delta_us": pd.Series(dtype="int64")})
        is_l = g["il"].to_numpy() == 1
        if not is_l.any() or is_l.all():
            return empty
        u = g["u"].to_numpy(np.int64)
        ts = g["ts_us"].to_numpy(np.int64)
        eid = g["eid"].to_numpy(np.int64)
        du = np.unique(u, return_inverse=True)[1].astype(np.int64)
        n_users, ts_min = int(du.max()) + 1, int(ts.min())
        span = int(ts.max()) - ts_min + int(w_us) + 1
        if n_users * span >= 1 << 63:
            raise ValueError(f"range_join: {n_users} users over a {span} us "
                             "span overflow the int64 (user, ts) key")
        key = du * np.int64(span) + (ts - np.int64(ts_min))
        # a coarse-hash collision can co-locate an event's original AND
        # its next-bucket replica — right rows dedupe by the globally
        # unique event_id (pairing ignores the bucket tag)
        rall = np.flatnonzero(~is_l)
        rsel = rall[np.unique(eid[rall], return_index=True)[1]]
        rk = key[rsel]
        order = np.argsort(rk, kind="stable")
        rk, rsel = rk[order], rsel[order]
        lk, lsel = key[is_l], np.flatnonzero(is_l)
        lo = np.searchsorted(rk, lk - w_us, side="left")
        hi = np.searchsorted(rk, lk, side="left")
        cnt = hi - lo
        total = int(cnt.sum())
        if total == 0:
            return empty
        ridx = (np.repeat(lo, cnt)
                + np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt))
        lidx = np.repeat(np.arange(len(lk)), cnt)
        li, ri = lsel[lidx], rsel[ridx]
        return pd.DataFrame({"user_id": u[li], "left_id": eid[li],
                             "right_id": eid[ri],
                             "delta_us": ts[li] - ts[ri]})

    return (ds.map_batches(fan_out, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("gk").map_groups(pairs, batch_format="pandas")
            .map_batches(lambda t: t, batch_format="pyarrow")
            .sort(["user_id", "left_id", "right_id"]))


def topk_by_group(sf_dir: str, k: int = 5):
    """Per-key top-k (top ``k`` events by value per event type) with the
    100 TB combiner shape: every block first reduces itself to ≤ k rows
    PER KEY (a vectorised sort + grouped head — no Python row loop), so
    the grouped exchange moves O(n_blocks · keys · k) rows instead of the
    whole table; a final per-key kernel merges the partials and assigns
    ranks.  Ties break by ``event_id`` so the output is deterministic and
    hash-matches the SQL ``row_number()`` oracle."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "event_type", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["event_type", "value", "event_id"],
                            ascending=[True, False, True], kind="stable")
        return df.groupby("event_type", sort=False).head(k)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["value", "event_id"],
                          ascending=[False, True], kind="stable").head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["event_type", "rank", "event_id", "value"]]

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby("event_type").map_groups(final,
                                              batch_format="pandas")
            .sort(["event_type", "rank"]))


def percentile_by_group(sf_dir: str, ps=(0.5, 0.95)):
    """EXACT per-key percentiles at 100 TB scale via integer histograms:
    values quantise to cents (they are currency-like to begin with), each
    block reduces itself to a (key, cents) → count histogram, the grouped
    exchange moves only distinct histogram cells (bounded by the VALUE
    DOMAIN, not the row count), and a per-key cumulative-sum kernel reads
    the percentiles off the sorted histogram.  No sort of the data, no
    sampling, no sketch error.  The discrete-percentile index rule
    ``max(0, ceil(p*n) - 1)`` mirrors DuckDB ``quantile_disc`` exactly
    (verified over n ∈ {3,4,5,6,7,13} × p grid), so the oracle
    hash-matches."""
    import math
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def hist(t: pa.Table) -> pa.Table:
        cents = _cents(t.column("value"), 100.0) \
            .to_numpy(zero_copy_only=False)
        et = t.column("event_type").to_pandas()
        df = pd.DataFrame({"event_type": et, "cents": cents})
        g = df.groupby(["event_type", "cents"], sort=False) \
            .size().reset_index(name="n")
        g["n"] = g["n"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(hist, batch_format="pyarrow",
                          zero_copy_batch=True)
           .groupby(["event_type", "cents"])
           .aggregate(Sum("n", alias_name="n")))

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("cents")
        cum = g["n"].cumsum().to_numpy()
        total = int(cum[-1])
        row = {"event_type": [g["event_type"].iloc[0]],
               "n": np.array([total], np.int64)}
        for p in ps:
            idx = max(0, math.ceil(p * total) - 1)
            pos = int(np.searchsorted(cum, idx + 1, side="left"))
            key = f"p{int(round(p * 100))}_cents"
            row[key] = np.array([g["cents"].iloc[pos]], np.int64)
        return pd.DataFrame(row)

    return (agg.groupby("event_type")
            .map_groups(finalize, batch_format="pandas")
            .sort("event_type"))


def event_type_stats_exact(sf_dir: str):
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": t.column("event_type"),
            "value": t.column("value"),
            "value_mil": _cents(t.column("value"), 1000.0),
        })

    ds = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return (ds.groupby("event_type")
            .aggregate(Count(alias_name="n"),
                       Sum("value_mil", alias_name="sum_value_mil"),
                       Min("value", alias_name="min_value"),
                       Max("value", alias_name="max_value"))
            .sort("event_type")
            .select_columns(["event_type", "n", "sum_value_mil",
                             "min_value", "max_value"]))


# ---------------------------------------------------------------------------
# round-4 batch 3: CDC chunk dedup, corpus heavy hitters, anti-join, rollup
# ---------------------------------------------------------------------------

def dedup_cdc_chunks(sf_dir: str, k: int = _ROLL_K,
                     sample_mod: int = _ROLL_SAMPLE, min_shared: int = 2,
                     max_bucket: int = 200, rows_per_group: int = 5000):
    """Chunk-level near-duplicate pairs (the substring-dedup family of
    Lee et al. 2022, "Deduplicating Training Data Makes Language Models
    Better"): two documents are near-duplicates iff they share at least
    ``min_shared`` content-defined sampled chunk fingerprints (the
    :func:`doc_fingerprint_rolling` CDC scheme — robust to insertions and
    deletions, unlike whole-document hashing, and cheaper than MinHash
    because no permutation table is needed).

    Fingerprints present in more than ``max_bucket`` documents are
    boilerplate (headers, templates) and are dropped — this is part of the
    operator's DEFINITION, mirrored verbatim by the SQL oracle, not a
    silent cap.

    Scale shape: one exchange of (fp, doc_id) int64 pairs (never text),
    grouped by a COARSENED key (fp & salt_mask, sized to ~``rows_per_group``
    rows per ``map_groups`` call — fp buckets are mostly singletons, same
    rationale as :func:`minhash_candidates`); a second small exchange
    aggregates pair multiplicity.  Output: (a, b, n_shared) sorted."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    powers = np.array(_roll_powers(k), np.uint64)
    n_docs = ds.count()                 # parquet metadata, no scan
    n_salt = 1 << max(0, (max(1, n_docs // rows_per_group) - 1)
                      .bit_length())
    mask = np.int64(n_salt - 1)

    def fps(batch: pd.DataFrame) -> pa.Table:
        t = _rolling_fp_batch(batch, k, sample_mod, powers)
        return t.append_column(
            "gsalt", pc.cast(pc.bit_wise_and(t.column("fp"), mask),
                             pa.int32()))

    tri_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def pairs(group: dict) -> dict:
        # one call per salt group holding MANY exact fp buckets
        fp = np.asarray(group["fp"], np.int64)
        ids = np.asarray(group["doc_id"], np.int64)
        order = np.lexsort((ids, fp))
        fp_s, ids_s = fp[order], ids[order]
        _, starts, counts = np.unique(fp_s, return_index=True,
                                      return_counts=True)
        a_out, b_out = [], []
        sel = (counts >= 2) & (counts <= max_bucket)
        for s, c in zip(starts[sel], counts[sel]):
            u = ids_s[s:s + c]          # already distinct per doc
            tri = tri_cache.get(len(u))
            if tri is None:
                tri = tri_cache[len(u)] = np.triu_indices(len(u), k=1)
            a_out.append(u[tri[0]])
            b_out.append(u[tri[1]])
        if not a_out:
            return {"a": np.empty(0, np.int64), "b": np.empty(0, np.int64)}
        return {"a": np.concatenate(a_out), "b": np.concatenate(b_out)}

    def tag_pk(t: pa.Table) -> pa.Table:
        # coarse pair key for the multiplicity count: the same (a, b)
        # arises in DIFFERENT salt groups (one per shared fp), so a
        # global exchange is required — but a two-key
        # groupby().aggregate(Count) measured 19 s on 37 k pair rows
        # (sort-aggregate barriers), while this coarse single-key
        # map_groups with a vectorised in-group unique costs < 2 s
        a = t.column("a").to_numpy(zero_copy_only=False).astype(np.uint64)
        b = t.column("b").to_numpy(zero_copy_only=False).astype(np.uint64)
        pk = (a * np.uint64(0x9E3779B97F4A7C15) + b) & np.uint64(mask)
        return t.append_column("pk", pa.array(pk.astype(np.int32)))

    def count_pairs(group: dict) -> dict:
        a = np.asarray(group["a"], np.int64)
        b = np.asarray(group["b"], np.int64)
        order = np.lexsort((b, a))
        a_s, b_s = a[order], b[order]
        change = np.empty(len(a_s), bool)
        change[0] = True
        np.not_equal(a_s[1:], a_s[:-1], out=change[1:])
        change[1:] |= b_s[1:] != b_s[:-1]
        starts = np.flatnonzero(change)
        counts = np.diff(np.append(starts, len(a_s)))
        sel = counts >= min_shared
        return {"a": a_s[starts[sel]], "b": b_s[starts[sel]],
                "n_shared": counts[sel].astype(np.int64)}

    return (ds.map_batches(fps, batch_format="pandas")
            .groupby("gsalt").map_groups(pairs, batch_format="numpy")
            .map_batches(tag_pk, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("pk").map_groups(count_pairs, batch_format="numpy")
            .sort(["a", "b"])
            .select_columns(["a", "b", "n_shared"]))



def _ngram_count_rows(t: pa.Table, n: int, n_groups: int) -> pa.Table:
    """Arrow-native per-block (ngram, partial_count, gk) rows — the
    shared hot scan of :func:`ngram_topk` / :func:`bigram_lift`: RE2
    whitespace split (same class as :data:`_ASCII_WS_RE` and the DuckDB
    oracles) → ``list_flatten`` with ``np.repeat`` parents → n-1
    element-wise joins of shifted slices masked to same-document runs →
    ``dictionary_encode`` + ``bincount`` for the unique counts.  No
    per-row Python, no pandas object conversion of the text column."""
    empty = pa.table({"ngram": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64()),
                      "gk": pa.array([], pa.int64())})
    flat_k, ids_k = _flat_ws_tokens(t)
    if len(ids_k) < n:
        return empty
    m = len(flat_k) - n + 1
    slices = [flat_k.slice(i, m) for i in range(n)]
    grams = slices[0] if n == 1 else pc.binary_join_element_wise(
        *slices, " ")
    same = ids_k[:m] == ids_k[n - 1:]
    grams = grams.filter(pa.array(same))
    if len(grams) == 0:
        return empty
    return _count_gram_rows(grams, n_groups)


def _flat_ws_tokens(t: pa.Table):
    """Shared tokenize preamble of :func:`_ngram_count_rows` /
    :func:`_skipgram_count_rows`: RE2 whitespace split (the
    :data:`_ASCII_WS_RE` class the DuckDB oracles mirror) →
    ``list_flatten`` with ``np.repeat`` document parents →
    empty-token filter.  Returns ``(flat_k, ids_k)``: the flattened
    non-empty token Array and its int64 document-run ids."""
    txt = pc.fill_null(t.column("text"), "")
    lst = pc.split_pattern_regex(txt, r"[\t\n\f\r ]+")
    n_per = pc.list_value_length(lst) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(lst)
    ids = np.repeat(np.arange(len(n_per), dtype=np.int64), n_per)
    keep = pc.not_equal(flat, "")
    if isinstance(keep, pa.ChunkedArray):
        keep = keep.combine_chunks()
    ids_k = ids[keep.to_numpy(zero_copy_only=False)]
    flat_k = flat.filter(keep)
    if isinstance(flat_k, pa.ChunkedArray):
        flat_k = flat_k.combine_chunks()
    return flat_k, ids_k


def _count_gram_rows(grams, n_groups: int) -> pa.Table:
    """Per-block unique counts of a gram/pair string array → (ngram,
    partial_count, gk) rows — the combiner tail shared by
    :func:`_ngram_count_rows` and :func:`_skipgram_count_rows`
    (``dictionary_encode`` + ``bincount``; gk from the process-stable
    pandas ``hash_array`` so the coarse regroups are rerun-identical)."""
    enc = pc.dictionary_encode(grams)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = enc.dictionary
    counts = np.bincount(codes, minlength=len(vocab)).astype(np.int64)
    uniq = vocab.to_numpy(zero_copy_only=False)
    order = np.argsort(uniq)
    uniq, counts = uniq[order], counts[order]
    gk = (pd.util.hash_array(uniq) % np.uint64(n_groups)) \
        .astype(np.int64)
    return pa.table({"ngram": pa.array(uniq.tolist(), pa.string()),
                     "cnt": pa.array(counts),
                     "gk": pa.array(gk)})


def _skipgram_count_rows(t: pa.Table, window: int,
                         n_groups: int) -> pa.Table:
    """Windowed co-occurrence partials: for every token position ``i``
    and distance ``d ∈ [1, window)``, the UNORDERED pair of ``tok[i]``
    and ``tok[i+d]`` canonicalised lexicographically (bytewise UTF-8 —
    the same collation DuckDB's ``least``/``greatest`` use), masked to
    same-document runs, as ``"lo hi"`` strings into the shared
    :func:`_count_gram_rows` combiner.  Arrow-native throughout: one
    regex split, ``window - 1`` shifted-slice compares, no per-row
    Python."""
    empty = pa.table({"ngram": pa.array([], pa.string()),
                      "cnt": pa.array([], pa.int64()),
                      "gk": pa.array([], pa.int64())})
    flat_k, ids_k = _flat_ws_tokens(t)
    chunks = []
    for d in range(1, window):
        m = len(flat_k) - d
        if m <= 0:
            break
        a, b = flat_k.slice(0, m), flat_k.slice(d, m)
        le = pc.less_equal(a, b)
        lo, hi = pc.if_else(le, a, b), pc.if_else(le, b, a)
        pair = pc.binary_join_element_wise(lo, hi, " ") \
            .filter(pa.array(ids_k[:m] == ids_k[d:]))
        if len(pair):
            chunks.append(pair)
    if not chunks:
        return empty
    grams = pa.chunked_array(chunks).combine_chunks()
    return _count_gram_rows(grams, n_groups)

def ngram_topk(sf_dir: str, n: int = 2, k: int = 50):
    """Corpus-wide top-``k`` word ``n``-grams by frequency — the
    heavy-hitters primitive of corpus analysis (boilerplate discovery,
    contamination screens).  Combiner shape: each block counts its own
    grams via one ``np.unique`` (per-block partial counts), the exchange
    carries (ngram, partial_count) rows — never per-occurrence rows — a
    small groupby sums them, each post-groupby block reduces itself to its
    local top-``k`` (the global top-``k`` is a subset of the union of
    per-block top-``k`` since every ngram appears in exactly one block
    after the groupby), and the driver merges O(blocks × k) rows.
    Deterministic total order: count desc, ngram asc."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    # a string-key sort-aggregate over the whole vocabulary measured 8 s
    # at sf0.1 where these coarse hash groups (+ an in-group vectorised
    # pandas sum) cost ~2 s — the dedup_cdc_chunks lesson applied to a
    # string domain; pandas hash_array is process-stable (fixed hash_key)
    n_groups = 4 * _join_partitions()

    def partial(t: pa.Table) -> pa.Table:
        return _ngram_count_rows(t, n, n_groups)

    def head(df: pd.DataFrame) -> pa.Table:
        # every distinct ngram hashes into exactly one group, so the
        # per-group local top-k union is a superset of the global top-k
        df = (df.groupby("ngram", sort=False, as_index=False)["cnt"]
              .sum()
              .sort_values(["cnt", "ngram"], ascending=[False, True],
                           kind="mergesort").head(k))
        return pa.Table.from_pandas(df, preserve_index=False)

    top = _to_arrow(ds.map_batches(partial, batch_format="pyarrow",
                                   zero_copy_batch=True)
                    .groupby("gk").map_groups(head,
                                              batch_format="pandas"))
    df = (top.to_pandas()
          .sort_values(["cnt", "ngram"], ascending=[False, True],
                       kind="mergesort")
          .head(k).reset_index(drop=True))
    df.insert(0, "rnk", np.arange(1, len(df) + 1, dtype=np.int64))
    return pa.table({"rnk": pa.array(df["rnk"], pa.int64()),
                     "ngram": pa.array(df["ngram"], pa.string()),
                     "cnt": pa.array(df["cnt"], pa.int64())})


def anti_join(sf_dir: str, priority: str = "1-URGENT",
              rows_per_group: int = 5000):
    """Distributed anti-join: customers with NO order of the given
    priority, in ONE :func:`_cogroup` exchange: per-block DISTINCT
    right-side keys (a combiner — the exchange carries keys once per
    block, not once per order row) meet the customer rows in coarse
    groups, where a vectorised ``is_in`` excludes them.  No driver
    materialisation, no broadcast assumption on either side."""
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_name", "c_mktsegment",
                               "c_acctbal"])
    orders = read_table(sf_dir, "orders",
                        columns=["o_custkey", "o_orderpriority"])
    n_cust = cust.count()               # parquet metadata, no scan
    n_groups = max(32, n_cust // rows_per_group)

    def urgent_keys(t: pa.Table) -> pa.Table:
        return pa.table({"c_custkey": pc.unique(t.filter(pc.equal(
            t.column("o_orderpriority"), priority)).column("o_custkey"))})

    keys = orders.map_batches(urgent_keys, batch_format="pyarrow",
                              zero_copy_batch=True)
    cust_schema = pa.schema([("c_custkey", pa.int64()),
                             ("c_name", pa.string()),
                             ("c_mktsegment", pa.string()),
                             ("c_acctbal", pa.float64())])
    return _cogroup((cust, cust_schema),
                    (keys, pa.schema([("c_custkey", pa.int64())])),
                    "c_custkey", n_groups,
                    _match_filter("c_custkey", anti=True)) \
        .sort("c_custkey")


def rollup_lang_source(sf_dir: str):
    """Multi-level aggregate (SQL ``GROUPING SETS``/``ROLLUP``): document
    count and character volume by (lang, source), by lang, and grand
    total, with subtotal rows marked ``'ALL'``.  Single-pass combiner:
    each block pre-aggregates ALL THREE levels locally, so the one
    exchange carries O(distinct groups × 3) partial rows per block — a
    100 TB corpus with 30 languages shuffles kilobytes."""
    ds = read_table(sf_dir, "documents",
                    columns=["lang", "source", "n_chars"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = (b.groupby(["lang", "source"], as_index=False)
             .agg(n_docs=("n_chars", "size"),
                  sum_chars=("n_chars", "sum")))
        l1 = (g.groupby("lang", as_index=False)
              .agg(n_docs=("n_docs", "sum"),
                   sum_chars=("sum_chars", "sum")))
        l1["source"] = "ALL"
        l2 = pd.DataFrame({"lang": ["ALL"], "source": ["ALL"],
                           "n_docs": [g["n_docs"].sum()],
                           "sum_chars": [g["sum_chars"].sum()]})
        out = pd.concat([g, l1, l2], ignore_index=True)
        out["n_docs"] = out["n_docs"].astype("int64")
        out["sum_chars"] = out["sum_chars"].astype("int64")
        return out[["lang", "source", "n_docs", "sum_chars"]]

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby(["lang", "source"])
            .aggregate(Sum("n_docs", alias_name="n_docs"),
                       Sum("sum_chars", alias_name="sum_chars"))
            .sort(["lang", "source"])
            .select_columns(["lang", "source", "n_docs", "sum_chars"]))


def stratified_sample(sf_dir: str, n_per_lang: int = 20,
                      seed: str = "s17"):
    """Stratified uniform sample: the ``n_per_lang`` documents with the
    smallest ``md5(seed:doc_id)`` hash per language — the reproducible,
    partitioning-independent way to draw a per-stratum sample of training
    data (reruns, resumes and cluster-size changes all pick the same
    docs).  Combiner shape (same as :func:`topk_by_group`): every block
    reduces itself to ≤ n rows per lang before the grouped exchange, so
    the shuffle moves O(blocks × langs × n) rows at any corpus size."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = _stable_token_hashes(
            [f"{seed}:{d}" for d in df["doc_id"]])
        df = df.assign(bucket_ppm=(h % np.uint64(1_000_000))
                       .astype(np.int64))
        df = df.sort_values(["lang", "bucket_ppm", "doc_id"],
                            kind="stable")
        return df.groupby("lang", sort=False).head(n_per_lang)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["bucket_ppm", "doc_id"],
                          kind="stable").head(n_per_lang)
        g = g.reset_index(drop=True)
        g["rnk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["lang", "rnk", "doc_id", "bucket_ppm"]]

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby("lang").map_groups(final, batch_format="pandas")
            .sort(["lang", "rnk"]))


# default mixture for dataset_mix: ppm weights per source (the remaining
# sources get zero — a curation run that upweights a few clean sources);
# shared verbatim with the SQL oracle's CASE expression
_MIX_RATIOS_PPM: dict[str, int] = {
    "src0": 400_000, "src1": 300_000, "src2": 200_000, "src3": 100_000,
}


def dataset_mix(sf_dir: str, budget: int = 120,
                ratios_ppm: dict[str, int] | None = None,
                seed: str = "s19"):
    """Source-ratio dataset mixing — the curation primitive that builds a
    training mix: per-source quota = floor(ratio × budget), filled with
    each source's ``min(quota, available)`` lowest-hash documents (so the
    draw is uniform-without-replacement per source, deterministic, and
    independent of partitioning/cluster size).  Same bounded combiner
    shape as :func:`stratified_sample`; sources with zero ratio are
    filtered at the read, never shuffled."""
    ratios = _MIX_RATIOS_PPM if ratios_ppm is None else ratios_ppm
    quota = {s: (p * budget) // 1_000_000 for s, p in ratios.items()
             if (p * budget) // 1_000_000 > 0}
    max_q = max(quota.values(), default=0)
    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "lang", "source"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["source"].isin(quota)]
        if not len(df):
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "lang": pd.Series([], dtype="object"),
                                 "source": pd.Series([], dtype="object"),
                                 "bucket_ppm": pd.Series([],
                                                         dtype="int64")})
        h = _stable_token_hashes(
            [f"{seed}:{d}" for d in df["doc_id"]])
        df = df.assign(bucket_ppm=(h % np.uint64(1_000_000))
                       .astype(np.int64))
        df = df.sort_values(["source", "bucket_ppm", "doc_id"],
                            kind="stable")
        return df.groupby("source", sort=False).head(max_q)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["bucket_ppm", "doc_id"], kind="stable") \
            .head(quota[g["source"].iloc[0]])
        g = g.reset_index(drop=True)
        g["rnk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["source", "rnk", "doc_id", "lang", "bucket_ppm"]]

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby("source").map_groups(final, batch_format="pandas")
            .sort(["source", "rnk"]))


def _tf_rows(t: pa.Table) -> pa.Table:
    """Exact (doc_id, token, tf) rows per block — a document lives in one
    row, so its term frequencies are complete within its block (the
    combiner property the tf/df and LM-scoring ops rely on).

    Arrow-native hot path (zero pandas object conversion, no per-row
    Python): RE2 split (same ``[\\t\\n\\f\\r ]+`` class as
    :data:`_ASCII_WS_RE` and the DuckDB oracles) → ``list_flatten`` with
    a ``np.repeat`` parent join → ``dictionary_encode`` so the counting
    runs over int32 codes — one lexsort + run-length per block.  Output
    row order differs from the old pandas groupby (first-seen) order,
    which is safe: every consumer re-aggregates or re-sorts on
    deterministic keys."""
    doc = t.column("doc_id").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    txt = pc.fill_null(t.column("text"), "")
    lst = pc.split_pattern_regex(txt, r"[\t\n\f\r ]+")
    n_per = pc.list_value_length(lst).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    flat = pc.list_flatten(lst)
    ids = np.repeat(doc, n_per)
    keep = pc.not_equal(flat, "")
    if isinstance(keep, pa.ChunkedArray):
        keep = keep.combine_chunks()
    ids_k = ids[keep.to_numpy(zero_copy_only=False)]
    if len(ids_k) == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "token": pa.array([], pa.string()),
                         "tf": pa.array([], pa.int64())})
    enc = pc.dictionary_encode(flat.filter(keep))
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = enc.dictionary
    order = np.lexsort((codes, ids_k))
    i_s, c_s = ids_k[order], codes[order]
    starts = np.flatnonzero(np.concatenate(
        ([True], (i_s[1:] != i_s[:-1]) | (c_s[1:] != c_s[:-1]))))
    tf = np.diff(np.append(starts, len(i_s))).astype(np.int64)
    return pa.table({
        "doc_id": pa.array(i_s[starts], pa.int64()),
        "token": vocab.take(pa.array(c_s[starts], pa.int32())),
        "tf": pa.array(tf)})


# vocabulary broadcast bound for _attach_token_stat: (token, int64) rows
# at ~30 B/row mean, 4M tokens ≈ 120 MB — worker-heap-safe; beyond that
# the tf/df ops fall back to the ONE Dataset.join exchange
_VOCAB_BROADCAST_MAX = 4_000_000


def _attach_token_stat(tf, stat_ds, col: str):
    """Attach a vocabulary-keyed int64 statistic column (``df``, ``cnt``)
    to exact (doc_id, token, tf) rows.

    Scale shape: the statistic table is vocabulary-bounded, not
    occurrence-bounded.  When it fits a worker heap
    (``<= _VOCAB_BROADCAST_MAX`` rows) it is broadcast ONCE with
    ``ray.put`` and probed with Arrow's vectorised hash lookup
    (``pc.index_in``) inside a pure map over the tf rows — no join
    operator, no aggregator-pool spin-up (the measured 6–16 s fixed
    floor under every ``Dataset.join``, the round-5 bench tail).  A
    web-scale vocabulary (distinct raw tokens are NOT bounded — typo and
    URL tails grow with the corpus) falls back to the ONE ``Dataset.join``
    exchange, where hot tokens stay a join key, never a group.  Same
    guarded-broadcast contract as :func:`dedup_keep_best`."""
    stat_ds = stat_ds.materialize()
    if stat_ds.count() <= _VOCAB_BROADCAST_MAX:
        vt = _to_arrow(stat_ds)
        toks = vt.column("token").combine_chunks()
        vals = vt.column(col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ref = ray.put((toks, vals))

        def attach(t: pa.Table) -> pa.Table:
            from ..stages.util import cached_from_ref
            toks_b, vals_b = cached_from_ref(ref)
            pos = pc.index_in(t.column("token"), value_set=toks_b)
            if pos.null_count:
                # every tf token is in an aggregate built FROM tf; a
                # miss means the broadcast is stale/corrupt — fail loud
                raise RuntimeError("token missing from broadcast vocab")
            idx = pos.to_numpy(zero_copy_only=False).astype(np.int64)
            return t.append_column(col, pa.array(vals_b[idx], pa.int64()))

        return tf.map_batches(attach, batch_format="pyarrow",
                              zero_copy_batch=True)
    return tf.join(stat_ds, join_type="inner",
                   num_partitions=_join_partitions(), on=("token",))


def tfidf_topk(sf_dir: str, k: int = 3):
    """Per-document top-``k`` distinctive terms by an integer tf/df score
    (``tf · 1e6 // df`` — floor-exact, so the SQL oracle hash-matches; the
    familiar tf-idf log damping would put a float log in the hash path
    for no semantic gain at top-k).  Scale shape: per-block exact
    (doc_id, token, tf) rows (a document lives in one row, so its tf is
    complete within its block), a Count-combiner aggregate builds the
    (token, df) side, and :func:`_attach_token_stat` attaches df — a
    guarded vocabulary broadcast probe, falling back to ONE
    ``Dataset.join`` above ``_VOCAB_BROADCAST_MAX`` (never chain two —
    round-4 finding: pipelined joins deadlock the aggregator pool); the
    per-doc top-k uses the bounded-combiner shape.  Hot tokens are a
    probe/join key, not a ``map_groups`` group, so token skew never
    builds a giant group."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    tf = ds.map_batches(_tf_rows, batch_format="pyarrow",
                        zero_copy_batch=True)
    # (doc_id, token) rows are distinct, so Count == document frequency;
    # the aggregate feeds a join/broadcast build side, so guard it
    # (_coalesce_schema_less — the round-4 "no match for FieldRef" crash)
    df_tbl = _coalesce_schema_less(
        tf.groupby("token").aggregate(Count(alias_name="df")))
    joined = _attach_token_stat(tf, df_tbl, "df")

    def score(t: pa.Table) -> pa.Table:
        s = pc.divide(pc.multiply(t.column("tf"), pa.scalar(1_000_000)),
                      t.column("df"))         # int64 // int64 == floor
        return pa.table({"doc_id": t.column("doc_id"),
                         "token": t.column("token"),
                         "score": pc.cast(s, pa.int64())})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["doc_id", "score", "token"],
                            ascending=[True, False, True], kind="stable")
        return df.groupby("doc_id", sort=False).head(k)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["score", "token"],
                          ascending=[False, True], kind="stable").head(k)
        g = g.reset_index(drop=True)
        g["rnk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["doc_id", "rnk", "token", "score"]]

    return (joined.map_batches(score, batch_format="pyarrow",
                               zero_copy_batch=True)
            .map_batches(partial, batch_format="pandas")
            .groupby("doc_id").map_groups(final, batch_format="pandas")
            .sort(["doc_id", "rnk"]))


# inverted-index df bounds — module consts so the SQL oracle is generated
# from the same values (dataset_mix convention)
_IDX_MIN_DF = 2
_IDX_MAX_DF = 500


def inverted_index(sf_dir: str, min_df: int = _IDX_MIN_DF,
                   max_df: int = _IDX_MAX_DF):
    """Distributed inverted-index build — the retrieval-prep step of a
    RAG / search pipeline: one row per vocabulary token with its
    document frequency and the md5 of its ASCENDING doc-id posting list
    (the md5 verifies the full ordered postings against the oracle's
    ``string_agg ORDER BY`` without hashing a giant list column through
    the driver compare).

    Scale shape: token SKEW is the hazard (a stopword's posting list is
    every document).  Document frequencies come first from a
    Count-combiner aggregate; the tokens above ``max_df`` — the Zipf
    head, a tiny set — are collected and BROADCAST via ``ray.put`` so
    the tf rows are filtered before the postings exchange ever sees
    them.  The surviving rows co-locate in coarse ``hash(token)``
    groups (one lexsort + segment walk per group — never one Python
    call per token group), and ``min_df`` prunes the hapax tail
    in-group.  Postings therefore exchange O(sum of bounded df) rows,
    and no group exceeds ~rows_per_group regardless of corpus size."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    tf = ds.map_batches(_tf_rows, batch_format="pyarrow",
                        zero_copy_batch=True)
    df_tbl = tf.groupby("token").aggregate(Count(alias_name="df"))
    stop = _to_arrow(df_tbl.filter(expr=f"df > {int(max_df)}"))
    stop_ref = ray.put(set(stop.column("token").to_pylist())
                       if stop.num_rows else set())
    n_groups = 64

    def keyed(t: pa.Table) -> pa.Table:
        from ..stages.util import cached_from_ref
        stop_ = cached_from_ref(stop_ref)
        tok = t.column("token")
        if stop_:
            keep = pc.invert(pc.is_in(
                tok, value_set=pa.array(sorted(stop_), pa.string())))
            t = t.filter(keep)
            tok = t.column("token")
        gk = (pd.util.hash_array(
            tok.to_numpy(zero_copy_only=False).astype(object))
            % np.uint64(n_groups)).astype(np.int64)
        return pa.table({"token": tok,
                         "doc_id": t.column("doc_id"),
                         "gk": pa.array(gk)})

    _empty_index = pa.table({
        "token": pa.array([], pa.string()),
        "df": pa.array([], pa.int64()),
        "postings_md5": pa.array([], pa.string()),
        "first_doc": pa.array([], pa.int64()),
        "last_doc": pa.array([], pa.int64())})

    def postings(g: pd.DataFrame) -> pa.Table:
        if not len(g):
            return _empty_index
        enc = pc.dictionary_encode(pa.array(g["token"], pa.string()))
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = enc.dictionary
        ids = g["doc_id"].to_numpy(dtype=np.int64)
        order = np.lexsort((ids, codes))
        c_s, i_s = codes[order], ids[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], c_s[1:] != c_s[:-1])))
        dfs = np.diff(np.append(starts, len(c_s))).astype(np.int64)
        keep = dfs >= min_df
        toks, md5s = [], []
        for s, n in zip(starts[keep], dfs[keep]):
            seg = i_s[s:s + n]
            toks.append(vocab[c_s[s]].as_py())
            md5s.append(hashlib.md5(
                ",".join(map(str, seg.tolist())).encode()).hexdigest())
        return pa.table({
            "token": pa.array(toks, pa.string()),
            "df": pa.array(dfs[keep]),
            "postings_md5": pa.array(md5s, pa.string()),
            "first_doc": pa.array(i_s[starts[keep]], pa.int64()),
            "last_doc": pa.array(
                i_s[starts[keep] + dfs[keep] - 1], pa.int64()),
        })

    return (tf.map_batches(keyed, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("gk").map_groups(postings, batch_format="pandas")
            .sort("token"))


# the synthetic corpus' closed language domain — shared between
# pivot_doc_langs and its SQL oracle's FILTER columns
_PIVOT_LANGS = ("de", "en", "es", "fr", "zh")


def pivot_doc_langs(sf_dir: str):
    """Crosstab pivot: one row per source, one count column per language
    (plus the row total) — the wide-table shape reporting queries want.
    Each block reduces to its local crosstab (a ≤ sources × 6 integer
    table), so the exchange is tiny at any scale; languages outside the
    closed domain count toward ``n_total`` only, exactly like the SQL
    oracle's ``count(*) FILTER`` columns."""
    ds = read_table(sf_dir, "documents", columns=["lang", "source"])
    cols = [f"n_{lg}" for lg in _PIVOT_LANGS]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("source").size().to_frame("n_total")
        for lg, col in zip(_PIVOT_LANGS, cols):
            out[col] = df[df["lang"] == lg].groupby("source").size()
        out = out.fillna(0).astype("int64").reset_index()
        return out[["source"] + cols + ["n_total"]]

    aggs = [Sum(c, alias_name=c) for c in cols] + \
        [Sum("n_total", alias_name="n_total")]
    return (ds.map_batches(partial, batch_format="pandas")
            .groupby("source").aggregate(*aggs)
            .sort("source")
            .select_columns(["source"] + cols + ["n_total"]))


def pack_sequences(sf_dir: str, budget: int = 4096,
                   range_size: int = 4096):
    """Greedy sequential sequence packing — the operator that turns a
    document corpus into fixed-token-budget training sequences: documents
    are concatenated in ``doc_id`` order and every doc is assigned the
    bin ``start_tok // budget`` and offset ``start_tok % budget``, where
    ``start_tok`` is the EXCLUSIVE prefix sum of whitespace token counts.

    This is the distributed prefix-scan primitive: (1) one pass computes
    block-local (doc_id, n_tokens) rows, kept materialised (16 bytes/doc
    — at 5 B docs that is ~80 GB across the cluster's object store,
    spillable; the alternative is re-tokenising the corpus twice);
    (2) a combiner aggregate sums tokens per ``doc_id // range_size``
    range — O(n_docs / range_size) rows to the driver, which folds them
    into exclusive range offsets (a ~16 MB dict at 5 B docs; ship via
    ``ray.put`` if ranges outgrow closure capture); (3) a grouped second
    pass sorts each bounded range and adds its broadcast offset to the
    in-range cumulative sum.  Two bounded exchanges, no global sort of
    the corpus, driver state linear in ranges — not rows."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def counts(batch: pd.DataFrame) -> pa.Table:
        n = np.fromiter(
            (len(_ws_tokens(t)) if isinstance(t, str) else 0
             for t in batch["text"]),
            np.int64, len(batch))
        doc = batch["doc_id"].to_numpy(np.int64)
        return pa.table({
            "doc_id": pa.array(doc),
            "n_tokens": pa.array(n),
            "rng": pa.array((doc // range_size).astype(np.int32)),
        })

    cnt = ds.map_batches(counts, batch_format="pandas").materialize()
    totals = _to_arrow(cnt.groupby("rng")
                       .aggregate(Sum("n_tokens", alias_name="tot")))
    tot_df = totals.to_pandas().sort_values("rng")
    offs = dict(zip(
        tot_df["rng"],
        np.concatenate([[0], np.cumsum(tot_df["tot"].to_numpy())[:-1]])
        .astype(np.int64)))

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="stable").reset_index(drop=True)
        cum = g["n_tokens"].to_numpy(np.int64).cumsum()
        start = cum - g["n_tokens"].to_numpy(np.int64) \
            + offs[int(g["rng"].iloc[0])]
        return pd.DataFrame({
            "doc_id": g["doc_id"],
            "n_tokens": g["n_tokens"],
            "start_tok": start,
            "bin_id": start // budget,
            "offset_in_bin": start % budget,
        })

    return (cnt.groupby("rng").map_groups(assign, batch_format="pandas")
            .sort("doc_id")
            .select_columns(["doc_id", "n_tokens", "start_tok",
                             "bin_id", "offset_in_bin"]))


def train_shards(sf_dir: str, n_shards: int = 8, seed: str = "sh17",
                 range_bits: int = 52):
    """Deterministic shuffle-into-shards — the final step before
    training: every document gets a shard (``md5(seed:doc_id) mod
    n_shards``) and a POSITION inside that shard (its rank in md5-hash
    order), so the training reader streams each shard in a reproducible,
    rerun- and cluster-size-independent pseudo-random order (a
    ``ds.random_shuffle`` would differ per run and per partitioning —
    the same argument as :func:`sample_hash`).

    Scale shape — the :func:`pack_sequences` prefix-scan primitive keyed
    on the HASH space instead of doc_id: (1) one pass computes (doc,
    shard, shifted-int64 hash, hash-range) rows (the uint64 md5 lives
    only inside the kernel — Ray block conversions don't preserve
    uint64, so the exchanged order key is the order-preserving
    ``hv XOR 2⁶³`` reinterpreted as int64); (2) a combiner counts rows
    per (shard, top-``64−range_bits``-bit hash range) — bounded driver
    state, folded into exclusive per-range offsets in shard-major
    hash-ascending order; (3) a grouped second pass sorts each bounded
    range by (hash, doc_id) and adds its offset.  Two bounded exchanges,
    no global sort, and the oracle's ``row_number OVER (PARTITION BY
    shard ORDER BY hv, doc_id)`` replays positions exactly
    (``md5_number_lower`` == the low-8-bytes-LE convention of
    :func:`_stable_token_hashes`)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id"])
    n_ranges = np.int64(1 << (64 - range_bits))
    _TOP = np.uint64(1 << 63)

    def hrows(batch: pd.DataFrame) -> pa.Table:
        doc = batch["doc_id"].to_numpy(np.int64)
        hv = _stable_token_hashes([f"{seed}:{d}" for d in doc])
        shard = (hv % np.uint64(n_shards)).astype(np.int64)
        hs = (hv ^ _TOP).view(np.int64)
        rngkey = shard * n_ranges \
            + (hv >> np.uint64(range_bits)).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(doc),
            "shard_id": pa.array(shard),
            "hs": pa.array(hs),
            "rngkey": pa.array(rngkey),
        })

    rows = ds.map_batches(hrows, batch_format="pandas").materialize()
    per_range = _to_arrow(rows.groupby("rngkey")
                          .aggregate(Count(alias_name="n"))).to_pandas() \
        .sort_values("rngkey")
    offs = dict(zip(
        per_range["rngkey"],
        np.concatenate([[0], np.cumsum(per_range["n"].to_numpy())[:-1]])
        .astype(np.int64)))
    # exclusive offsets restart at every shard boundary (rngkey is
    # shard-major, so subtracting the shard's first cumulative total
    # re-zeroes positions per shard)
    shard_of = per_range["rngkey"].to_numpy() // n_ranges
    first = {}
    for rk, sh in zip(per_range["rngkey"], shard_of):
        if sh not in first:
            first[sh] = offs[rk]
    offs = {int(rk): int(offs[rk] - first[rk // int(n_ranges)])
            for rk in per_range["rngkey"]}

    def assign(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["hs", "doc_id"], kind="stable") \
            .reset_index(drop=True)
        return pd.DataFrame({
            "doc_id": g["doc_id"],
            "shard_id": g["shard_id"],
            "pos": offs[int(g["rngkey"].iloc[0])]
            + np.arange(len(g), dtype=np.int64),
        })

    return (rows.groupby("rngkey").map_groups(assign,
                                              batch_format="pandas")
            .sort("doc_id")
            .select_columns(["doc_id", "shard_id", "pos"]))


def decontaminate(sf_dir: str, k: int = _ROLL_K, sample_mod: int = 16,
                  benchmark_source: str = "src0",
                  rows_per_group: int = 5000):
    """Benchmark decontamination — the training-data screen that flags
    corpus documents sharing character ``k``-gram fingerprints with a
    held-out benchmark set (here: the docs whose ``source`` equals
    ``benchmark_source``), in the spirit of the n-gram overlap
    decontamination used for LLM training sets.  A training doc is
    contaminated iff it shares ≥ 1 sampled Rabin-Karp fingerprint with
    ANY benchmark doc; output is (doc_id, n_hits = distinct shared
    fingerprints), benchmark docs excluded.

    Scale shape: identical to :func:`dedup_cdc_chunks` — the exchange
    carries (fp, doc_id, is_bench) int64 triples (never text) grouped on
    a coarsened fp-salt key; within each vectorised group a fingerprint
    contributes hits only when both sides are present, so the benchmark
    set is never broadcast and never becomes a hot key (a benchmark is
    tiny next to the corpus; its rows co-partition with the corpus'
    by fp)."""
    ds = read_table(sf_dir, "documents",
                    columns=["doc_id", "text", "source"])
    powers = np.array(_roll_powers(k), np.uint64)
    n_docs = ds.count()                 # parquet metadata, no scan
    n_salt = 1 << max(0, (max(1, n_docs // rows_per_group) - 1)
                      .bit_length())
    mask = np.int64(n_salt - 1)

    def fps(batch: pd.DataFrame) -> pa.Table:
        t = _rolling_fp_batch(batch, k, sample_mod, powers)
        bench_ids = set(
            batch.loc[batch["source"] == benchmark_source, "doc_id"])
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)
        is_bench = np.fromiter((d in bench_ids for d in doc), bool,
                               len(doc))
        return pa.table({
            "doc_id": t.column("doc_id"),
            "fp": t.column("fp"),
            "is_bench": pa.array(is_bench.astype(np.int8)),
            "gsalt": pc.cast(pc.bit_wise_and(t.column("fp"), mask),
                             pa.int32()),
        })

    def hits(group: dict) -> dict:
        fp = np.asarray(group["fp"], np.int64)
        doc = np.asarray(group["doc_id"], np.int64)
        bench = np.asarray(group["is_bench"], np.int8).astype(bool)
        order = np.argsort(fp, kind="stable")
        fp_s, doc_s, bench_s = fp[order], doc[order], bench[order]
        _, starts, counts = np.unique(fp_s, return_index=True,
                                      return_counts=True)
        # a segment yields hits iff it holds >= 1 bench AND >= 1 corpus row
        seg_ids = np.repeat(np.arange(len(starts)), counts)
        has_bench = np.zeros(len(starts), bool)
        np.logical_or.at(has_bench, seg_ids, bench_s)
        take = has_bench[seg_ids] & ~bench_s
        return {"doc_id": doc_s[take], "fp": fp_s[take]}

    flagged = (ds.map_batches(fps, batch_format="pandas")
               .groupby("gsalt").map_groups(hits, batch_format="numpy"))

    # (doc_id, fp) rows are distinct already (per-doc unique fps), so the
    # per-doc hit count is a single-key Count combiner — the fast
    # aggregate path (two-key aggregates are the slow one, see
    # dedup_cdc_chunks)
    return (flagged.groupby("doc_id")
            .aggregate(Count(alias_name="n_hits"))
            .sort("doc_id")
            .select_columns(["doc_id", "n_hits"]))


# ---------------------------------------------------------------------------
# graph analytics over derived entity graphs
# ---------------------------------------------------------------------------

# node encoding for the bipartite supplier—part graph: suppliers keep their
# key, parts live at key + 2^32 (both id spaces are far below 2^32 at any
# TPC-H sf this engine sees, and the offset also serves as the kind bit)
_PR_PART_OFFSET = np.int64(1) << np.int64(32)


def _bipartite_edges(sf_dir: str, rows_per_group: int):
    """Materialised globally-DISTINCT undirected supplier—part edges from
    ``lineitem`` as (key, dst) rows, both directions of every edge:
    per-block distinct pair keys (combiner) → ONE coarse groupby dedups
    globally and expands both directions."""
    li = read_table(sf_dir, "lineitem", columns=["l_suppkey", "l_partkey"])
    n_rows = li.count()                       # parquet metadata, no scan
    n_groups = int(max(32, n_rows // rows_per_group))

    def pair_partial(t: pa.Table) -> pa.Table:
        s = t.column("l_suppkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        p = t.column("l_partkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        k = (s << np.int64(33)) | p           # p < 2^33 at any sf here
        uk = np.unique(k)
        return pa.table({
            "k": pa.array(uk, pa.int64()),
            "gk": pa.array(_coarse_key(uk, n_groups), pa.int64()),
        })

    def expand(g: dict) -> dict:
        k = np.unique(np.asarray(g["k"], np.int64))
        s = k >> np.int64(33)
        p = (k & ((np.int64(1) << np.int64(33)) - np.int64(1))) \
            + _PR_PART_OFFSET
        return {"key": np.concatenate([s, p]), "dst": np.concatenate([p, s])}

    return (li.map_batches(pair_partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("gk").map_groups(expand, batch_format="numpy")
            .materialize())


# partition refs of the bipartite graph pagerank/bfs_hops share, cached
# per (input, Ray session): building the CSR partitions is the expensive
# part.  Keyed on the job id like _LM_SCORE_CACHE because object refs die
# with the Ray session.
_GRAPH_SHARDS_CACHE: dict[tuple, list] = {}
# per-op message-row counters (exchange accounting for BASELINE.md)
_LAST_GRAPH_EXCHANGE: dict[str, int] = {}


def _n_shards() -> int:
    cpus = (int(ray.cluster_resources().get("CPU", 8))
            if ray.is_initialized() else 8)
    return int(max(2, min(16, cpus // 2)))


def _graph_shards(sf_dir: str, rows_per_group: int) -> list:
    """Partition refs of the bipartite supplier—part graph (see
    stages/graph.py for the Pregel contract), built once per input."""
    key = ("gshards", os.path.abspath(sf_dir), rows_per_group,
           _table_fingerprint(sf_dir, "lineitem"),
           ray.get_runtime_context().get_job_id()
           if ray.is_initialized() else None)
    hit = _GRAPH_SHARDS_CACHE.get(key)
    if hit is None:
        if len(_GRAPH_SHARDS_CACHE) > 3:
            _GRAPH_SHARDS_CACHE.clear()
        hit = _GRAPH_SHARDS_CACHE[key] = graph.partitions(
            _bipartite_edges(sf_dir, rows_per_group), _n_shards())
    return hit


def pagerank(sf_dir: str, iters: int = 3, rows_per_group: int = 5000):
    """PageRank over the undirected bipartite supplier—part graph derived
    from ``lineitem`` (an edge per DISTINCT (l_suppkey, l_partkey) pair) —
    the canonical iterative graph-analytics op a KG engine needs once the
    graph is materialised (ranking canonical entities by connectivity).

    Integer-micros grid (the k-means/IVF trick, so an *iterative*
    algorithm has an exact unrolled-SQL oracle): r0 = 1e6 for every node;
    each iteration r'(v) = 150000 + Σ_{u→v} (r(u)·850000) // (deg(u)·1e6)
    with pure int64 arithmetic — fully deterministic, no float. The graph
    is undirected so there are no dangling nodes and every node receives
    ≥ 1 contribution.

    Pregel shape (pinned graph, message-only iteration on stateless
    tasks — :mod:`~..stages.graph`): the distinct undirected edge table
    is built ONCE (per-block distinct-pair combiner → one coarse
    groupby) and partitioned by ``hash(src)`` — each shard owns the
    rank + degree of its src nodes.  An iteration is one scatter task
    per shard (per-edge int64 contributions pre-SUMMED per destination
    node and per target shard) routed point-to-point via
    ``num_returns`` refs into one gather task per shard.  Edges never
    move after partitioning; the per-iteration exchange is bounded by
    unique destination nodes per shard pair — (node, sum) int64 pairs,
    never adjacency.  int64 addition is associative+commutative, so
    ranks are bit-identical for any shard count (the dataset-groupby
    formulation this replaced re-shuffled the full edge table every
    iteration)."""
    parts = _graph_shards(sf_dir, rows_per_group)
    r, _LAST_GRAPH_EXCHANGE["pagerank"] = graph.pagerank(parts, iters)
    ranks = rd.from_arrow_refs(graph.collect(parts, r, ("key", "r")))

    def finish(t: pa.Table) -> pa.Table:
        node = t.column("key").to_numpy(zero_copy_only=False)
        is_part = node >= _PR_PART_OFFSET
        kind = np.where(is_part, "part", "supplier")
        nkey = np.where(is_part, node - _PR_PART_OFFSET, node)
        return pa.table({
            "kind": pa.array(kind.tolist(), pa.string()),
            "node_key": pa.array(nkey, pa.int64()),
            "rank_micro": t.column("r"),
        })

    return (ranks.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)
            .sort(["kind", "node_key"]))


# ---------------------------------------------------------------------------
# quality-rule filtering (Gopher-style repetition/shape rules)
# ---------------------------------------------------------------------------

# thresholds in integer micros — chosen so the synthetic corpus splits
# non-trivially (word-salad docs have heavy duplicate-word mass). The rule
# SHAPE is the published Gopher one: word-count bounds, mean-word-length
# band, duplicate-word and top-word repetition caps.
_GOPHER_MIN_WORDS = 20
_GOPHER_MAX_WORDS = 100_000
_GOPHER_MEAN_LEN_LO = 3_000_000       # 3 chars
_GOPHER_MEAN_LEN_HI = 10_000_000      # 10 chars
_GOPHER_DUP_FRAC_MAX = 600_000        # ≤60% duplicate word mass
_GOPHER_TOP_FRAC_MAX = 200_000        # top word ≤20% of the doc


def gopher_quality(sf_dir: str):
    """Gopher-style quality-rule filter (Rae et al. 2021 §A1.1 shape):
    per-document word statistics + a boolean keep flag, all on the
    integer-micros grid so the DuckDB oracle hash-matches exactly.

    Emitted per doc (docs with ≥ 1 ASCII-whitespace token):
    ``n_words``, ``mean_word_len_micro`` = (Σ len(w) · 1e6) // n_words,
    ``dup_word_frac_micro`` = ((n_words − n_distinct) · 1e6) // n_words,
    ``top_word_frac_micro`` = (max word count · 1e6) // n_words, and
    ``keep`` (1 iff every rule passes).

    Fully vectorised per batch: one flatten of the batch's tokens,
    ``pd.factorize`` token codes, a single ``np.unique`` over
    (doc, code) composite keys for the per-doc distinct/top counts —
    no per-document Python loop beyond the tokenising split itself.
    Embarrassingly parallel (no shuffle at all): the filter each 100 TB
    curation pass runs first, so it must stream at read speed."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def f(batch: pd.DataFrame) -> pa.Table:
        tok_lists = [_ws_tokens(t) if isinstance(t, str) else []
                     for t in batch["text"]]
        n_words = np.array([len(t) for t in tok_lists], np.int64)
        mask = n_words > 0
        doc_ids = batch["doc_id"].to_numpy(np.int64)[mask]
        tok_lists = [t for t in tok_lists if t]
        nw = n_words[mask]
        n = len(tok_lists)
        if n == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "n_words": pa.array([], pa.int64()),
                "mean_word_len_micro": pa.array([], pa.int64()),
                "dup_word_frac_micro": pa.array([], pa.int64()),
                "top_word_frac_micro": pa.array([], pa.int64()),
                "keep": pa.array([], pa.int64()),
            })
        flat = np.asarray([w for toks in tok_lists for w in toks], object)
        doc_idx = np.repeat(np.arange(n), nw)
        lens = np.char.str_len(flat.astype(str)).astype(np.int64)
        total_chars = np.bincount(doc_idx, weights=lens,
                                  minlength=n).astype(np.int64)
        codes, _ = pd.factorize(flat)
        comp = doc_idx.astype(np.int64) * np.int64(len(flat) + 1) + codes
        uniq_comp, comp_counts = np.unique(comp, return_counts=True)
        uniq_doc = (uniq_comp // np.int64(len(flat) + 1)).astype(np.int64)
        n_distinct = np.bincount(uniq_doc, minlength=n).astype(np.int64)
        top_cnt = np.zeros(n, np.int64)
        np.maximum.at(top_cnt, uniq_doc, comp_counts.astype(np.int64))
        mean_len = (total_chars * np.int64(1_000_000)) // nw
        dup_frac = ((nw - n_distinct) * np.int64(1_000_000)) // nw
        top_frac = (top_cnt * np.int64(1_000_000)) // nw
        keep = ((nw >= _GOPHER_MIN_WORDS) & (nw <= _GOPHER_MAX_WORDS)
                & (mean_len >= _GOPHER_MEAN_LEN_LO)
                & (mean_len <= _GOPHER_MEAN_LEN_HI)
                & (dup_frac <= _GOPHER_DUP_FRAC_MAX)
                & (top_frac <= _GOPHER_TOP_FRAC_MAX)).astype(np.int64)
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "n_words": pa.array(nw, pa.int64()),
            "mean_word_len_micro": pa.array(mean_len, pa.int64()),
            "dup_word_frac_micro": pa.array(dup_frac, pa.int64()),
            "top_word_frac_micro": pa.array(top_frac, pa.int64()),
            "keep": pa.array(keep, pa.int64()),
        })

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def repetition_ngrams(sf_dir: str, n: int = 3):
    """Gopher-style within-document n-gram repetition statistics (Rae et
    al. 2021 §A1.1 "repetition" rules — the n-gram leg next to
    :func:`gopher_quality`'s word-level duplicate fractions; reference
    has no counterpart, this is a beyond-reference curation op).

    Per document with at least ``n`` whitespace tokens: ``n_grams`` =
    n_words − n + 1 overlapping word n-grams, ``dup_gram_frac_micro`` =
    ((n_grams − n_distinct) · 1e6) // n_grams and ``top_gram_frac_micro``
    = (max single-gram count · 1e6) // n_grams, all on the integer-micros
    grid so the DuckDB oracle hash-matches exactly.

    Vectorised with NO per-gram Python: tokens are factorized once per
    batch, gram identity is built by n−1 rounds of pairwise
    composite-int64 re-factorization (each composite < (len+1)², never a
    3-way product, so int64 is safe at any realistic block size), and the
    per-doc distinct/top counts come from one ``np.unique`` over
    (doc, gram) composites — the :func:`gopher_quality` kernel shape.
    Embarrassingly parallel (a pure map stage, zero shuffle): at 100 TB
    this runs at read bandwidth alongside the other quality filters."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def f(batch: pd.DataFrame) -> pa.Table:
        tok_lists = [_ws_tokens(t) if isinstance(t, str) else []
                     for t in batch["text"]]
        n_words = np.array([len(t) for t in tok_lists], np.int64)
        mask = n_words >= n
        doc_ids = batch["doc_id"].to_numpy(np.int64)[mask]
        ng, dup, top = _repetition_stats(
            [t for t, m in zip(tok_lists, mask) if m], n)
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "n_grams": pa.array(ng, pa.int64()),
            "dup_gram_frac_micro": pa.array(dup, pa.int64()),
            "top_gram_frac_micro": pa.array(top, pa.int64()),
        })

    return ds.map_batches(f, batch_format="pandas").sort("doc_id")


def _repetition_stats(tok_lists: list[list[str]], n: int):
    """Vectorised per-doc n-gram repetition kernel over token lists that
    each hold ≥ n tokens.  Returns (n_grams, dup_frac_micro,
    top_frac_micro) int64 arrays aligned with ``tok_lists``."""
    nd = len(tok_lists)
    if nd == 0:
        z = np.array([], np.int64)
        return z, z, z
    nw = np.array([len(t) for t in tok_lists], np.int64)
    flat = np.asarray([w for toks in tok_lists for w in toks], object)
    doc_idx = np.repeat(np.arange(nd), nw)
    codes = pd.factorize(flat)[0].astype(np.int64)
    K = np.int64(len(flat) + 1)
    m = len(flat) - (n - 1)
    # window start positions: docs are contiguous in flat order, so
    # first-token-doc == last-token-doc covers the whole window
    starts = np.nonzero(doc_idx[:m] == doc_idx[n - 1:])[0]
    gram = codes[starts]
    for j in range(1, n):
        comp = gram * K + codes[starts + j]
        gram = np.unique(comp, return_inverse=True)[1].astype(np.int64)
    gdoc = doc_idx[starts].astype(np.int64)
    K2 = np.int64(len(starts) + 1)
    uniq, cnts = np.unique(gdoc * K2 + gram, return_counts=True)
    udoc = (uniq // K2).astype(np.int64)
    n_distinct = np.bincount(udoc, minlength=nd).astype(np.int64)
    top_cnt = np.zeros(nd, np.int64)
    np.maximum.at(top_cnt, udoc, cnts.astype(np.int64))
    ng = nw - np.int64(n - 1)
    return (ng, ((ng - n_distinct) * np.int64(1_000_000)) // ng,
            (top_cnt * np.int64(1_000_000)) // ng)


# ---------------------------------------------------------------------------
# exact duplicate-passage detection (ExactSubstr-style, Lee et al. 2022)
# ---------------------------------------------------------------------------

_PASS_P = 2147483647      # 2^31 − 1: token AND window Horner modulus
_PASS_B = 31              # char base (token-level Horner)
_PASS_Q = 1000003         # token base (window-level Horner)


def _passage_window_rows(t: pa.Table, k: int, n_groups: int) -> pa.Table:
    """Per-block kernel for :func:`dup_passages`: every ``k``-token
    window of every document becomes one (gk, wh, doc_id) row, where
    ``wh`` is a two-level Horner hash — per-token over codepoints
    (``acc·31 + c mod 2³¹−1``), then per-window over the ``k`` token
    hashes (``acc·1000003 + h mod 2³¹−1``) — the exact expression the
    DuckDB oracle evaluates with ``list_reduce``, so window identity is
    bit-stable across engine and SQL.

    Fully vectorised: RE2 whitespace split (the :func:`_tf_rows` class),
    token Horner as max-token-length (≤ a few dozen) masked numpy
    passes over the flat utf8 values buffer, window Horner as ``k``
    vector ops over the flat token-hash array, with cross-document
    windows masked out by the repeated-doc_id boundary test.  ASCII
    bytes ARE codepoints; a non-ASCII token falls back to a per-token
    ``ord`` path so parity survives any corpus (never hit on testdata).
    All int64-safe: token step < 2³⁶, window step < 2⁵².
    """
    doc = t.column("doc_id").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    txt = pc.fill_null(t.column("text"), "")
    lst = pc.split_pattern_regex(txt, r"[\t\n\f\r ]+")
    n_per = pc.list_value_length(lst).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    flat = pc.list_flatten(lst)
    ids = np.repeat(doc, n_per)
    keep = pc.not_equal(flat, "")
    if isinstance(keep, pa.ChunkedArray):
        keep = keep.combine_chunks()
    ids_k = ids[keep.to_numpy(zero_copy_only=False)]
    flat_k = flat.filter(keep)
    if isinstance(flat_k, pa.ChunkedArray):
        flat_k = flat_k.combine_chunks()
    empty = pa.table({"gk": pa.array([], pa.int32()),
                      "wh": pa.array([], pa.int64()),
                      "doc_id": pa.array([], pa.int64())})
    n_tok = len(flat_k)
    if n_tok < k:
        return empty
    offs = np.frombuffer(flat_k.buffers()[1], np.int32)[
        flat_k.offset: flat_k.offset + n_tok + 1].astype(np.int64)
    buf = np.frombuffer(flat_k.buffers()[2], np.uint8).astype(np.int64)
    lens = np.diff(offs)
    starts = offs[:-1]
    if (buf[offs[0]:offs[-1]] >= 0x80).any():
        # exactness fallback: Horner over real codepoints, per token
        acc = np.fromiter(
            (_token_horner(s) for s in flat_k.to_pylist()),
            np.int64, count=n_tok)
    else:
        acc = np.zeros(n_tok, np.int64)
        for j in range(int(lens.max())):
            m = lens > j
            acc[m] = (acc[m] * _PASS_B + buf[starts[m] + j]) % _PASS_P
    n_win = n_tok - k + 1
    w = acc[:n_win].copy()
    for step in range(1, k):
        w = (w * _PASS_Q + acc[step:step + n_win]) % _PASS_P
    valid = ids_k[:n_win] == ids_k[k - 1:]
    wh = w[valid]
    if not len(wh):
        return empty
    return pa.table({
        "gk": pa.array((wh % n_groups).astype(np.int32)),
        "wh": pa.array(wh),
        "doc_id": pa.array(ids_k[:n_win][valid]),
    })


def _token_horner(tok: str) -> int:
    a = 0
    for c in tok:
        a = (a * _PASS_B + ord(c)) % _PASS_P
    return a


def dup_passages(sf_dir: str, k: int = 8):
    """Exact duplicate-PASSAGE statistics (the ExactSubstr leg of Lee et
    al. 2022, "Deduplicating Training Data Makes Language Models
    Better"): for every document with ≥ ``k`` whitespace tokens, count
    its ``k``-token windows and how many of them recur ANYWHERE in the
    corpus (including elsewhere in the same document) — the
    sub-document granularity that whole-doc MinHash (:func:`dedup_minhash`)
    and within-doc repetition (:func:`repetition_ngrams`) both miss.
    Emits (doc_id, n_windows, n_dup_windows, dup_ppm) with
    ``dup_ppm = n_dup·1e6 // n_windows`` on the integer grid so the
    DuckDB oracle hash-matches exactly.

    Scale shape (reference has no counterpart; suffix arrays replaced by
    a shuffle-friendly equivalent): stage 1 is a pure map emitting
    (wh, doc_id) int64 pairs — 16 B per window occurrence, never window
    TEXT; every occurrence of a window hash lands in one coarse
    ``wh % n_groups`` bucket, so global occurrence counts are complete
    within a group (one ``np.unique`` per group, no per-key Python);
    groups emit per-doc partials and a final small
    ``groupby(doc_id).sum`` folds them.  Two int-only exchanges total,
    both occurrence-bounded — at 100 TB this is the same exchange
    budget as :func:`dedup_cdc_chunks`, and hot windows (boilerplate
    repeated millions of times) stay inside one vectorised group rather
    than becoming a reduce hot key."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    n_groups = 4 * _join_partitions()

    def windows(t: pa.Table) -> pa.Table:
        return _passage_window_rows(t, k, n_groups)

    def per_group(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "wh" not in g.column_names:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_win": pa.array([], pa.int64()),
                             "n_dup": pa.array([], pa.int64())})
        wh = g.column("wh").to_numpy(zero_copy_only=False)
        doc = g.column("doc_id").to_numpy(zero_copy_only=False)
        _, inv, cnt = np.unique(wh, return_inverse=True,
                                return_counts=True)
        dup = cnt[inv] >= 2
        ud, dinv = np.unique(doc, return_inverse=True)
        return pa.table({
            "doc_id": pa.array(ud.astype(np.int64)),
            "n_win": pa.array(np.bincount(dinv).astype(np.int64)),
            "n_dup": pa.array(np.bincount(dinv, weights=dup)
                              .astype(np.int64)),
        })

    parts = (ds.map_batches(windows, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby("gk").map_groups(per_group, batch_format="pyarrow"))
    agg = (parts.groupby("doc_id")
           .aggregate(Sum("n_win", alias_name="n_windows"),
                      Sum("n_dup", alias_name="n_dup_windows")))

    def finish(t: pa.Table) -> pa.Table:
        nw = t.column("n_windows").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nd = t.column("n_dup_windows").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "n_windows": pa.array(nw),
            "n_dup_windows": pa.array(nd),
            "dup_ppm": pa.array((nd * np.int64(1_000_000)) // nw),
        })

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True).sort("doc_id")


# ---------------------------------------------------------------------------
# PII / numeric-token scrubbing over transcripts
# ---------------------------------------------------------------------------

# digit runs of >= 3 — the account/phone/amount scrub shape; RE2 ∩ Python
# ``re`` safe (no lookarounds, ASCII class) so the engine and the DuckDB
# oracle evaluate it identically
_PII_PATTERN = "[0-9][0-9][0-9]+"
_PII_TOKEN = "<NUM>"


def pii_redact(turns_ds):
    """Numeric-PII scrubbing over transcript turns: replace every run of
    ≥ 3 digits with ``<NUM>`` (the standard pre-training scrub for
    account numbers / phone numbers / amounts) and report, per turn that
    had at least one hit, the redaction count and the md5 of the redacted
    text (so the oracle verifies the REPLACEMENT, not just the count).

    Entirely Arrow-native compute — ``pc.count_substring_regex`` +
    ``pc.replace_substring_regex`` over zero-copy batches, no Python
    string loop — and embarrassingly parallel (no shuffle): at 100 TB
    this runs at read bandwidth as a pure map stage."""
    def f(t: pa.Table) -> pa.Table:
        text = t.column("text")
        n_red = pc.count_substring_regex(text, _PII_PATTERN)
        hit = pc.greater(n_red, 0)
        sel = t.filter(hit)
        red = pc.replace_substring_regex(sel.column("text"), _PII_PATTERN,
                                         _PII_TOKEN)
        md5 = [hashlib.md5(s.encode("utf-8")).hexdigest()
               for s in red.to_pylist()]
        return pa.table({
            "conv_id": sel.column("conv_id"),
            "turn_idx": pc.cast(sel.column("turn_idx"), pa.int64()),
            "n_redactions": pc.cast(n_red.filter(hit), pa.int64()),
            "redacted_md5": pa.array(md5, pa.string()),
        })

    return (turns_ds.map_batches(f, batch_format="pyarrow",
                                 zero_copy_batch=True)
            .sort(["conv_id", "turn_idx"]))


def unigram_lm_score(sf_dir: str):
    """Corpus-unigram-LM document scoring — the CCNet/perplexity-filter
    shape (score each doc by how surprising its tokens are under a
    language model fit on the corpus itself; head/tail bucketing is the
    caller's thresholding).  Exactness trick: instead of float
    log-probabilities the score is the integer mean inverse probability,
    ``lm_score_micro = (Σ_occ tf·((N·1e6) // cnt(tok))) // n_tokens``
    with N = total corpus token occurrences — order-independent int64
    arithmetic, so the DuckDB oracle hash-matches.  (int64-safe while
    N ≤ ~9.2e12 occurrences; a larger corpus rescales the 1e6 constant.)

    Scale shape (the tf/df pattern): per-block exact (doc, token, tf)
    rows, a Sum-combiner builds the (token, cnt) LM table — the exchange
    is vocabulary-bounded, not occurrence-bounded — and
    :func:`_attach_token_stat` attaches cnt (guarded vocabulary
    broadcast probe; ONE ``Dataset.join`` fallback above
    ``_VOCAB_BROADCAST_MAX``, where hot tokens stay a join key, never a
    group); the per-doc reduction is a two-Sum aggregate.

    The result is memoised per process keyed on the documents
    fingerprint (the :func:`dedup_clusters` convention) because
    :func:`ccnet_buckets` re-derives it."""
    # unlike the driver-heap Arrow caches, this one holds object-store
    # block refs — they die with the Ray session, so the session/job id
    # is part of the key (a hit after ray.shutdown()/re-init would
    # otherwise return a Dataset of dead refs)
    cache_key = ("lm", os.path.abspath(sf_dir),
                 _table_fingerprint(sf_dir, "documents"),
                 ray.get_runtime_context().get_job_id()
                 if ray.is_initialized() else None)
    hit = _LM_SCORE_CACHE.get(cache_key)
    if hit is not None:
        return hit
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    tf = ds.map_batches(_tf_rows, batch_format="pyarrow",
                        zero_copy_batch=True)
    cnt = _coalesce_schema_less(
        tf.groupby("token").aggregate(Sum("tf", alias_name="cnt"))
    ).materialize()
    n_total = int(cnt.sum("cnt"))
    joined = _attach_token_stat(tf, cnt, "cnt")

    def contrib(t: pa.Table) -> pa.Table:
        c = t.column("cnt").to_numpy(zero_copy_only=False)
        f = t.column("tf").to_numpy(zero_copy_only=False)
        ip = (np.int64(n_total) * np.int64(1_000_000)) // c
        return pa.table({
            "doc_id": t.column("doc_id"),
            "n_tokens": pa.array(f, pa.int64()),
            "ipsum": pa.array(f * ip, pa.int64()),
        })

    agg = (joined.map_batches(contrib, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("doc_id")
           .aggregate(Sum("n_tokens", alias_name="n_tokens"),
                      Sum("ipsum", alias_name="ipsum")))

    def final(t) -> pa.Table:
        df = t if isinstance(t, pd.DataFrame) else t.to_pandas()
        if len(df) == 0 or "doc_id" not in df.columns:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "lm_score_micro": pa.array([], pa.int64())})
        nt = df["n_tokens"].to_numpy(np.int64)
        return pa.table({
            "doc_id": pa.array(df["doc_id"].to_numpy(np.int64)),
            "n_tokens": pa.array(nt, pa.int64()),
            "lm_score_micro": pa.array(
                df["ipsum"].to_numpy(np.int64) // nt, pa.int64()),
        })

    out = (agg.map_batches(final, batch_format="pyarrow")
           .sort("doc_id").materialize())
    # the memo holds a MATERIALIZED Dataset — blocks live in the object
    # store (spillable), never on the driver heap, so the cache is
    # doc-count-scale-safe unlike an Arrow collect would be
    if len(_LM_SCORE_CACHE) > 4:
        _LM_SCORE_CACHE.clear()
    _LM_SCORE_CACHE[cache_key] = out
    return out


_LM_SCORE_CACHE: dict[tuple, object] = {}


def degree_distribution(sf_dir: str, rows_per_group: int = 5000):
    """Degree histogram of the derived supplier—part graph, split by node
    kind — the first sanity read of any materialised graph (hub
    detection, skew planning for the iterative ops).  Two combiner-shaped
    exchanges over int64 pairs: per-block (node, partial) counts →
    ``groupby(node).sum`` = degrees, then per-block (kind, deg, partial)
    counts → a tiny ``groupby`` over the histogram cells (bounded by the
    distinct-degree domain, not node count)."""
    edges = _bipartite_edges(sf_dir, rows_per_group)

    def deg_partial(t: pa.Table) -> pa.Table:
        src = t.column("key").to_numpy(zero_copy_only=False)
        uk, cnt = np.unique(src, return_counts=True)
        return pa.table({"node": pa.array(uk, pa.int64()),
                         "dg": pa.array(cnt.astype(np.int64))})

    degs = (edges.map_batches(deg_partial, batch_format="pyarrow",
                              zero_copy_batch=True)
            .groupby("node").aggregate(Sum("dg", alias_name="dg")))

    def hist_partial(t) -> pa.Table:
        df = t if isinstance(t, pd.DataFrame) else t.to_pandas()
        empty = pa.table({"kind": pa.array([], pa.string()),
                          "deg": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        if len(df) == 0 or "node" not in df.columns:
            return empty
        node = df["node"].to_numpy(np.int64)
        dg = df["dg"].to_numpy(np.int64)
        is_part = node >= _PR_PART_OFFSET
        cells, counts = np.unique(np.stack([is_part.astype(np.int64), dg],
                                           axis=1),
                                  axis=0, return_counts=True)
        kind = np.where(cells[:, 0] == 1, "part", "supplier")
        return pa.table({
            "kind": pa.array(kind.tolist(), pa.string()),
            "deg": pa.array(cells[:, 1], pa.int64()),
            "n": pa.array(counts.astype(np.int64)),
        })

    return (degs.map_batches(hist_partial, batch_format="pyarrow")
            .groupby(["kind", "deg"]).aggregate(Sum("n", alias_name="n"))
            .sort(["kind", "deg"])
            .select_columns(["kind", "deg", "n"]))


# ---------------------------------------------------------------------------
# Bloom-filter semi-join (broadcast-prefilter pattern for big ⋉ small)
# ---------------------------------------------------------------------------

_BLOOM_BITS = 1 << 20                 # 128 KiB — broadcast once per job
_BLOOM_HASHES = 4


def _bloom_positions(keys: np.ndarray) -> np.ndarray:
    """(n, k) bit positions per key — double hashing from two independent
    fib-mix streams (deterministic, C int64 wrap semantics)."""
    with np.errstate(over="ignore"):
        h1 = keys.astype(np.int64) * _COARSE_MULT
        h2 = (keys.astype(np.int64) + np.int64(0x5851F42D4C957F2D)) \
            * np.int64(0x2545F4914F6CDD1D)
    pos = (h1[:, None] + np.arange(_BLOOM_HASHES, dtype=np.int64)[None, :]
           * h2[:, None])
    return np.abs(pos >> np.int64(13)) % np.int64(_BLOOM_BITS)


def semi_join_bloom(sf_dir: str, priority: str = "1-URGENT",
                    rows_per_group: int = 5000):
    """Semi-join of the BIG table against a filtered small one (lineitems
    belonging to urgent orders) via the 100 TB broadcast-prefilter
    pattern: when the right-side key set is too large to broadcast raw,
    broadcast an m-bit Bloom filter instead and let every lineitem block
    drop the (vast) non-matching majority locally; only the bloom-passing
    candidates enter the exact verification :func:`_cogroup`, where
    right-side DISTINCT keys (the anti_join combiner) remove the false
    positives — so the output is EXACT (the bloom only sizes the
    shuffle).

    Bloom build is a mergeable sketch: per-block partial bit arrays are
    emitted as sparse non-zero (word_idx, word) rows, OR-merged in one
    coarse grouped pass (bounded by m/64 words, not row count), and the
    driver assembles the m-bit array once (128 KiB) for ``ray.put``."""
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_orderpriority"])
    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_linenumber",
                             "l_extendedprice"])
    n_words = _BLOOM_BITS // 64
    word_groups = np.int64(64)

    def bloom_partial(t: pa.Table) -> pa.Table:
        keys = t.filter(pc.equal(t.column("o_orderpriority"), priority)) \
            .column("o_orderkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        bits = np.zeros(n_words, np.uint64)
        if len(keys):
            pos = _bloom_positions(keys).ravel()
            np.bitwise_or.at(bits, pos >> 6,
                             np.uint64(1) << (pos.astype(np.uint64)
                                              & np.uint64(63)))
        nz = np.nonzero(bits)[0].astype(np.int64)
        return pa.table({
            "w": pa.array(nz, pa.int64()),
            # int64 view: uint64 does not survive Ray block conversions
            "bits": pa.array(bits[nz].view(np.int64), pa.int64()),
            "gw": pa.array(nz % word_groups, pa.int64()),
        })

    def or_merge(g: dict) -> dict:
        w = np.asarray(g["w"], np.int64)
        b = np.asarray(g["bits"], np.int64).view(np.uint64)
        order = np.argsort(w, kind="stable")
        w, b = w[order], b[order]
        uw, starts = np.unique(w, return_index=True)
        merged = np.bitwise_or.reduceat(b, starts)
        return {"w": uw, "bits": merged.view(np.int64)}

    sparse = _to_arrow(orders.map_batches(bloom_partial,
                                          batch_format="pyarrow",
                                          zero_copy_batch=True)
                       .groupby("gw").map_groups(or_merge,
                                                 batch_format="numpy"))
    bloom = np.zeros(n_words, np.uint64)
    bloom[sparse.column("w").to_numpy(zero_copy_only=False)] = \
        sparse.column("bits").to_numpy(zero_copy_only=False) \
        .view(np.uint64)
    bloom_ref = ray.put(bloom)

    n_li = li.count()                       # parquet metadata, no scan
    n_groups = max(32, n_li // rows_per_group)

    def prefilter(t: pa.Table) -> pa.Table:
        bl = ray.get(bloom_ref)
        keys = t.column("l_orderkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        pos = _bloom_positions(keys)
        hit = (bl[pos >> 6] >> (pos.astype(np.uint64) & np.uint64(63))
               & np.uint64(1)).astype(bool).all(axis=1)
        sel = t.filter(pa.array(hit))
        return pa.table({
            "l_orderkey": sel.column("l_orderkey"),
            "l_linenumber": sel.column("l_linenumber"),
            "price_cents": _cents(sel.column("l_extendedprice")),
        })

    def urgent_keys(t: pa.Table) -> pa.Table:
        return pa.table({"l_orderkey": pc.unique(t.filter(pc.equal(
            t.column("o_orderpriority"), priority)).column("o_orderkey"))})

    li_schema = pa.schema([("l_orderkey", pa.int64()),
                           ("l_linenumber", pa.int64()),
                           ("price_cents", pa.int64())])
    return _cogroup(
        (li.map_batches(prefilter, batch_format="pyarrow",
                        zero_copy_batch=True), li_schema),
        (orders.map_batches(urgent_keys, batch_format="pyarrow",
                            zero_copy_batch=True),
         pa.schema([("l_orderkey", pa.int64())])),
        "l_orderkey", n_groups, _match_filter("l_orderkey", anti=False)) \
        .sort(["l_orderkey", "l_linenumber"])


def butterfly_count(sf_dir: str, min_shared: int = 2,
                    rows_per_group: int = 5000):
    """Butterfly (4-cycle) counting over the bipartite supplier—part
    graph — the bipartite analogue of triangle counting (a butterfly is
    two suppliers sharing two parts; its density is the standard cohesion
    motif for bipartite graphs, cf. Sanei-Mehri et al. 2018).  Output:
    one row per supplier pair sharing ≥ ``min_shared`` parts, with the
    shared-part count ``w`` and its butterfly contribution C(w, 2) —
    pure integer arithmetic, so the SQL oracle (a distinct-edge self-join
    on the part key) hash-matches exactly.

    Scale shape (the :func:`dedup_cdc_chunks` wedge pattern): per-block
    DISTINCT (part, supplier) edge keys (combiner) → one coarse
    ``groupby(hash(part))`` dedups globally and emits wedge pairs per
    part via a cached triu kernel — the exchange carries int64 edge keys,
    never adjacency lists — then a second coarse ``groupby(hash(s1, s2))``
    counts pair multiplicity vectorised (a two-key aggregate measured
    ~10× slower on this shape).  Wedge fan-out is C(deg(part), 2): exact
    by definition (the oracle needs every wedge); a production run on a
    hub-heavy graph caps or samples the hot side first (the
    minhash-bucket sentinel pattern)."""
    li = read_table(sf_dir, "lineitem", columns=["l_suppkey", "l_partkey"])
    n_rows = li.count()                  # parquet metadata, no scan
    n_groups = int(max(32, n_rows // rows_per_group))

    def edge_partial(t: pa.Table) -> pa.Table:
        s = t.column("l_suppkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        p = t.column("l_partkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        uk = np.unique((p << np.int64(33)) | s)   # s < 2^33 at any sf here
        return pa.table({
            "k": pa.array(uk, pa.int64()),
            "gk": pa.array(_coarse_key(uk >> np.int64(33), n_groups),
                           pa.int64()),
        })

    tri_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def wedges(g: dict) -> dict:
        # all edges of a part land in this group (gk keys on the part);
        # dedup globally, then emit one (s1 < s2) wedge row per part
        # hosting both suppliers
        k = np.unique(np.asarray(g["k"], np.int64))
        part = k >> np.int64(33)
        sup = k & ((np.int64(1) << np.int64(33)) - np.int64(1))
        _, starts, counts = np.unique(part, return_index=True,
                                      return_counts=True)
        a_out, b_out = [], []
        for s0, c in zip(starts[counts >= 2], counts[counts >= 2]):
            u = sup[s0:s0 + c]           # sorted ascending within the part
            tri = tri_cache.get(len(u))
            if tri is None:
                tri = tri_cache[len(u)] = np.triu_indices(len(u), k=1)
            a_out.append(u[tri[0]])
            b_out.append(u[tri[1]])
        if not a_out:
            return {"s1": np.empty(0, np.int64),
                    "s2": np.empty(0, np.int64)}
        return {"s1": np.concatenate(a_out), "s2": np.concatenate(b_out)}

    def tag_pk(t: pa.Table) -> pa.Table:
        a = t.column("s1").to_numpy(zero_copy_only=False).astype(np.uint64)
        b = t.column("s2").to_numpy(zero_copy_only=False).astype(np.uint64)
        pk = ((a * np.uint64(0x9E3779B97F4A7C15) + b)
              % np.uint64(n_groups)).astype(np.int64)
        return t.append_column("pk", pa.array(pk))

    def count_pairs(g: dict) -> dict:
        a = np.asarray(g["s1"], np.int64)
        b = np.asarray(g["s2"], np.int64)
        order = np.lexsort((b, a))
        a_s, b_s = a[order], b[order]
        change = np.empty(len(a_s), bool)
        change[0] = True
        np.not_equal(a_s[1:], a_s[:-1], out=change[1:])
        change[1:] |= b_s[1:] != b_s[:-1]
        starts = np.flatnonzero(change)
        w = np.diff(np.append(starts, len(a_s))).astype(np.int64)
        sel = w >= min_shared
        w = w[sel]
        return {"s1": a_s[starts[sel]], "s2": b_s[starts[sel]],
                "shared_parts": w, "butterflies": w * (w - 1) // 2}

    return (li.map_batches(edge_partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("gk").map_groups(wedges, batch_format="numpy")
            .map_batches(tag_pk, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("pk").map_groups(count_pairs, batch_format="numpy")
            .sort(["s1", "s2"])
            .select_columns(["s1", "s2", "shared_parts", "butterflies"]))


def running_total(sf_dir: str, rows_per_group: int = 5000):
    """Per-customer running revenue: the ordered-window scan
    (``SUM() OVER (PARTITION BY key ORDER BY ...)``) the engine's window
    family lacked — tumbling/sliding windows bucket by time, this one is
    a per-key prefix sum over an explicit sort order.  Money is exact
    integer cents (:func:`_cents`), so the oracle hash-matches.

    Scale shape: ONE exchange — per-key grouping is coarse
    (``hash(custkey)``, ~``rows_per_group`` rows per group) because a
    customer's history is small but customers are many (millions of
    one-Python-call groups is the anti-pattern); inside a group one
    ``lexsort`` + segment-offset-subtracted ``cumsum`` computes every
    customer's prefix sums vectorised.  A key whose history exceeds a
    block (one user = years of events) would need the
    :func:`pack_sequences` two-pass carry instead — documented, not hit
    by this schema."""
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey",
                                 "o_totalprice", "o_orderdate"])
    n_rows = orders.count()              # parquet metadata, no scan
    n_groups = int(max(32, n_rows // rows_per_group))

    def pre(t: pa.Table) -> pa.Table:
        cust = t.column("o_custkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "o_custkey": pa.array(cust, pa.int64()),
            "cents": _cents(t.column("o_totalprice")),
            "ts": pc.cast(t.column("o_orderdate"), pa.int64()),
            "gk": pa.array(_coarse_key(cust, n_groups), pa.int64()),
        })

    def scan(g: dict) -> dict:
        cust = np.asarray(g["o_custkey"], np.int64)
        ts = np.asarray(g["ts"], np.int64)
        okey = np.asarray(g["o_orderkey"], np.int64)
        cents = np.asarray(g["cents"], np.int64)
        # (o_orderdate, o_orderkey) is a total order within a customer —
        # o_orderkey is unique, so ties on the date are deterministic
        order = np.lexsort((okey, ts, cust))
        cust_s, cents_s = cust[order], cents[order]
        cum = np.cumsum(cents_s)
        starts = np.flatnonzero(np.concatenate(
            ([True], cust_s[1:] != cust_s[:-1])))
        seg_len = np.diff(np.append(starts, len(cust_s)))
        base = np.repeat(cum[starts] - cents_s[starts], seg_len)
        return {"o_orderkey": okey[order], "o_custkey": cust_s,
                "run_cents": cum - base}

    return (orders.map_batches(pre, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("gk").map_groups(scan, batch_format="numpy")
            .sort(["o_custkey", "o_orderkey"])
            .select_columns(["o_orderkey", "o_custkey", "run_cents"]))


# membership rows are (doc_id, cluster_id) int64 pairs — 16 B/row, so
# 4M rows ≈ 64 MB broadcast: comfortably worker-heap-safe; beyond that
# dedup_keep_best falls back to the Dataset.join exchange
_KEEP_BEST_BROADCAST_MAX = 4_000_000


def dedup_keep_best(sf_dir: str):
    """Duplicate-cluster RESOLUTION: for every near-dup cluster from
    :func:`dedup_clusters`, pick the representative to keep — longest
    document (``n_chars``), ties to the lowest ``doc_id`` — the step a
    real dedup pipeline runs after the transitive closure ("keep one per
    cluster" needs a deterministic *which one*).

    Scale shape: the membership table (only docs inside dup clusters —
    ids + cluster ids, 16 B/member) is broadcast ONCE with ``ray.put``
    and probed with a vectorised ``searchsorted`` inside a pure map over
    ``documents(doc_id, n_chars)`` — no join operator, no aggregator
    spin-up.  If the membership set ever outgrows a worker heap
    (``> _KEEP_BEST_BROADCAST_MAX`` rows) the op falls back to the ONE
    ``Dataset.join`` exchange.  The argmax is a pure Max combiner over
    the packed priority key ``(n_chars << 33) | (2^33-1 - doc_id)`` —
    max picks longest-then-lowest-id with no per-cluster group
    materialisation, so a pathological giant cluster costs nothing
    extra."""
    cl = dedup_clusters(sf_dir)
    empty = pa.table({"cluster_id": pa.array([], pa.int64()),
                      "keep_doc_id": pa.array([], pa.int64()),
                      "kept_n_chars": pa.array([], pa.int64()),
                      "n_members": pa.array([], pa.int64())})
    cl = cl.materialize()
    n_members = cl.count()
    if n_members == 0:
        return rd.from_arrow(empty)
    docs = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    _M33 = (np.int64(1) << np.int64(33)) - np.int64(1)

    if n_members <= _KEEP_BEST_BROADCAST_MAX:
        mem = _to_arrow(cl)
        mids = mem.column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cids = mem.column("cluster_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.argsort(mids, kind="stable")
        ref = ray.put((mids[order], cids[order]))

        def attach(t: pa.Table) -> pa.Table:
            m, c = ray.get(ref)
            did = t.column("doc_id").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            nc = t.column("n_chars").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            pos = np.minimum(np.searchsorted(m, did), len(m) - 1)
            hit = m[pos] == did
            return pa.table({
                "cluster_id": pa.array(c[pos[hit]], pa.int64()),
                "pk": pa.array((nc[hit] << np.int64(33))
                               | (_M33 - did[hit]), pa.int64()),
                "one": pa.array(np.ones(int(hit.sum()), np.int64)),
            })

        packed = docs.map_batches(attach, batch_format="pyarrow",
                                  zero_copy_batch=True)
    else:
        # sorted output can carry schema-less empty blocks, which crash
        # the hash join's FieldRef resolution — guard
        joined = (_coalesce_schema_less(cl)
                  .join(docs, join_type="inner",
                        num_partitions=_join_partitions(), on=("doc_id",)))

        def pack(t: pa.Table) -> pa.Table:
            nc = t.column("n_chars").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            did = t.column("doc_id").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            return pa.table({
                "cluster_id": t.column("cluster_id"),
                "pk": pa.array((nc << np.int64(33)) | (_M33 - did),
                               pa.int64()),
                "one": pa.array(np.ones(len(nc), np.int64)),
            })

        packed = joined.map_batches(pack, batch_format="pyarrow",
                                    zero_copy_batch=True)

    agg = (packed.groupby("cluster_id")
           .aggregate(Max("pk", alias_name="pk"),
                      Sum("one", alias_name="n_members")))

    def unpack(t) -> pa.Table:
        df = t if isinstance(t, pd.DataFrame) else t.to_pandas()
        if len(df) == 0 or "cluster_id" not in df.columns:
            return empty
        pk = df["pk"].to_numpy(np.int64)
        return pa.table({
            "cluster_id": pa.array(df["cluster_id"].to_numpy(np.int64)),
            "keep_doc_id": pa.array(int(_M33) - (pk & int(_M33)),
                                    pa.int64()),
            "kept_n_chars": pa.array(pk >> np.int64(33), pa.int64()),
            "n_members": pa.array(df["n_members"].to_numpy(np.int64)),
        })

    return (agg.map_batches(unpack, batch_format="pyarrow")
            .sort("cluster_id"))


def dedup_apply(sf_dir: str, rows_per_group: int = 5000):
    """The LAST leg of the near-dup pipeline — candidates
    (:func:`dedup_minhash`) → transitive clusters (:func:`dedup_clusters`)
    → representative choice (:func:`dedup_keep_best`) → **APPLY**: emit
    the surviving corpus, i.e. every document except the
    non-representative members of duplicate clusters.  This is the query
    a user actually runs to deduplicate a corpus end to end.

    Scale shape: no broadcast assumption on either side — two
    :func:`_cogroup` anti-joins (the :func:`anti_join` single-exchange
    pattern):

    1. cluster members against keepers: the members with no keeper mate
       are the DROPPED id set, exchanged as bare int64 ids;
    2. documents against the dropped ids: the documents with no dropped
       mate survive.

    Both exchanges carry ids (plus ``n_chars`` for the corpus rows) and
    each group kernel is one vectorised ``isin`` — no per-key Python, no
    driver materialisation of the corpus."""
    members = _coalesce_schema_less(dedup_clusters(sf_dir))
    keepers = _coalesce_schema_less(dedup_keep_best(sf_dir)) \
        .rename_columns({"keep_doc_id": "doc_id"})
    docs = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    n_docs = docs.count()               # parquet metadata, no scan
    n_groups = max(32, n_docs // rows_per_group)
    ids = pa.schema([("doc_id", pa.int64())])
    drop = _match_filter("doc_id", anti=True)

    dropped = _cogroup((members, ids), (keepers, ids), "doc_id", n_groups,
                       drop)
    return _cogroup((docs, pa.schema([("doc_id", pa.int64()),
                                      ("n_chars", pa.int64())])),
                    (_coalesce_schema_less(dropped), ids),
                    "doc_id", n_groups, drop).sort("doc_id")


_BM25_K1_PPM = np.int64(1_200_000)       # k1 = 1.2 on the ppm grid
_BM25_B_PPM = np.int64(750_000)          # b = 0.75


def bm25_topk(sf_dir: str, k: int = 5, nq: int = 3, qlen: int = 6):
    """BM25 lexical retrieval: score every document against ``nq``
    data-derived query term sets (the distinct first ``qlen`` whitespace
    tokens of the ``nq`` lowest-``doc_id`` documents) and return the
    top-``k`` docs per query — the retrieval-based curation primitive
    (contamination probes, seed-document expansion) beside the vector
    family (knn/ann/ivf/pq).

    Exactness: textbook BM25 uses a float ln() idf; this op stays on the
    integer grid so the DuckDB oracle hash-matches —
    ``idf_milli = (N*1000) // df`` and the tf saturation evaluated with
    explicit floor divisions::

        bratio_ppm = (B · ((dl·1e12) // avgdl_micro)) // 1e6
        den        = tf·1e6 + (K1 · ((1e6 − B) + bratio_ppm)) // 1e6
        contrib    = (idf_milli · tf·(K1 + 1e6)) // den
        score      = Σ contrib over the query's distinct terms in the doc

    (int64-safe while N·tf ≲ 4e12; a bigger corpus rescales the milli
    constant — the :func:`unigram_lm_score` convention.)

    Scale shape: queries are found with a per-block n-smallest combiner
    (the knn selection pattern); ONE corpus pass emits per-doc match rows
    ``(q, term, tf, dl)`` plus a doc-length row — a doc lives in one row,
    so everything per-doc is block-local, flattened token membership is
    one ``isin`` (no per-token Python); N / avgdl / df come from tiny
    partial aggregates of those rows (a match row exists exactly for the
    docs containing the term, so df needs no second corpus pass); scoring
    reduces per (q, doc) in coarse hash groups and the per-query top-k is
    a per-block head-k combiner with an O(blocks·nq·k) driver merge."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    # -- query derivation: nq lowest doc_ids via per-block partial heads
    def qpart(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        if len(ids) > nq:
            sel = np.argpartition(ids, nq)[:nq]
            t = t.take(pa.array(np.sort(sel)))
        return t

    cand = _to_arrow(docs.map_batches(qpart, batch_format="pyarrow",
                                      zero_copy_batch=True)).to_pandas()
    cand = cand.sort_values("doc_id").head(nq)
    term_rows = []                       # (term, q_id)
    canon_q: dict[str, int] = {}
    for qid, text in zip(cand["doc_id"], cand["text"]):
        for term in sorted(set(_ws_tokens(text)[:qlen])):
            term_rows.append((term, int(qid)))
            canon_q.setdefault(term, int(qid))
    if not term_rows:
        return pa.table({"q_id": pa.array([], pa.int64()),
                         "rnk": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score_milli": pa.array([], pa.int64())})
    term_q = pd.DataFrame(term_rows, columns=["term", "q_id"])
    all_terms = set(term_q["term"])

    # -- one corpus pass: doc rows (q_id = -1, dl) + match rows
    def matches(batch: pd.DataFrame) -> pa.Table:
        toks = [x if isinstance(x, str) else "" for x in batch["text"]]
        toks = [_ws_tokens(t) for t in toks]
        lens = np.array([len(t) for t in toks], np.int64)
        ids = batch["doc_id"].to_numpy()
        keep = lens > 0
        out_q = [np.full(int(keep.sum()), -1, np.int64)]
        out_doc = [ids[keep].astype(np.int64)]
        out_term = [[""] * int(keep.sum())]
        out_tf = [np.zeros(int(keep.sum()), np.int64)]
        out_dl = [lens[keep]]
        flat = pd.Series([w for t in toks for w in t], dtype=object)
        if len(flat):
            doc_idx = np.repeat(np.arange(len(toks)), lens)
            hit = flat.isin(all_terms).to_numpy()
            if hit.any():
                sub = pd.DataFrame({"di": doc_idx[hit],
                                    "term": flat[hit].to_numpy()})
                tf = sub.groupby(["di", "term"], sort=False,
                                 as_index=False).size()
                tf = tf.merge(term_q, on="term")   # one row per (q, term)
                di = tf["di"].to_numpy()
                out_q.append(tf["q_id"].to_numpy(np.int64))
                out_doc.append(ids[di].astype(np.int64))
                out_term.append(tf["term"].tolist())
                out_tf.append(tf["size"].to_numpy(np.int64))
                out_dl.append(lens[di])
        return pa.table({
            "q_id": pa.array(np.concatenate(out_q), pa.int64()),
            "doc_id": pa.array(np.concatenate(out_doc), pa.int64()),
            "term": pa.array([w for part in out_term for w in part],
                             pa.string()),
            "tf": pa.array(np.concatenate(out_tf), pa.int64()),
            "dl": pa.array(np.concatenate(out_dl), pa.int64()),
        })

    m = docs.map_batches(matches, batch_format="pandas").materialize()

    # -- tiny driver-folded aggregates: N, avgdl, df(term)
    def stat_part(t: pa.Table) -> pa.Table:
        q = t.column("q_id").to_numpy(zero_copy_only=False)
        dl = t.column("dl").to_numpy(zero_copy_only=False)
        is_doc = q == -1
        rows = [("", int(is_doc.sum()), int(dl[is_doc].sum()))]
        # df partial: match rows are unique per (q, term, doc); count a
        # term's docs once via its canonical query
        tm = t.column("term").to_pandas()
        canon = np.array([canon_q.get(w, -2) for w in tm], np.int64)
        sel = (q >= 0) & (q == canon)
        if sel.any():
            vc = tm[sel].value_counts()
            rows += [(term, int(c), 0) for term, c in vc.items()]
        return pa.table({
            "term": pa.array([r[0] for r in rows], pa.string()),
            "n": pa.array([r[1] for r in rows], pa.int64()),
            "dls": pa.array([r[2] for r in rows], pa.int64()),
        })

    parts = _to_arrow(m.map_batches(stat_part, batch_format="pyarrow",
                                    zero_copy_batch=True)).to_pandas()
    folded = parts.groupby("term", sort=False).sum()
    n_docs = int(folded.loc["", "n"]) if "" in folded.index else 0
    if n_docs == 0:                      # all-empty corpus: nothing to rank
        return pa.table({"q_id": pa.array([], pa.int64()),
                         "rnk": pa.array([], pa.int64()),
                         "doc_id": pa.array([], pa.int64()),
                         "score_milli": pa.array([], pa.int64())})
    avgdl_micro = (int(folded.loc["", "dls"]) * 1_000_000) // n_docs
    df_map = {t: int(r["n"]) for t, r in folded.iterrows() if t}

    n_groups = 4 * _join_partitions()

    def contrib(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t.column("q_id"), 0))
        tf = t.column("tf").to_numpy(zero_copy_only=False)
        dl = t.column("dl").to_numpy(zero_copy_only=False)
        df = np.array([df_map[w] for w in t.column("term").to_pylist()],
                      np.int64)
        idf_milli = (np.int64(n_docs) * np.int64(1000)) // df
        bratio = (_BM25_B_PPM
                  * ((dl * np.int64(1_000_000_000_000))
                     // np.int64(avgdl_micro))) // np.int64(1_000_000)
        den = (tf * np.int64(1_000_000)
               + (_BM25_K1_PPM * ((np.int64(1_000_000) - _BM25_B_PPM)
                                  + bratio)) // np.int64(1_000_000))
        c = (idf_milli * (tf * (_BM25_K1_PPM + np.int64(1_000_000)))) // den
        qv = t.column("q_id").to_numpy(zero_copy_only=False)
        dv = t.column("doc_id").to_numpy(zero_copy_only=False)
        pk = _coarse_key(qv * np.int64(1_000_003) + dv, n_groups)
        return pa.table({"q_id": pa.array(qv, pa.int64()),
                         "doc_id": pa.array(dv, pa.int64()),
                         "c": pa.array(c, pa.int64()),
                         "pk": pa.array(pk, pa.int64())})

    def score_group(g: dict) -> dict:
        q = np.asarray(g["q_id"], np.int64)
        d = np.asarray(g["doc_id"], np.int64)
        c = np.asarray(g["c"], np.int64)
        order = np.lexsort((d, q))
        q_s, d_s, c_s = q[order], d[order], c[order]
        change = np.empty(len(q_s), bool)
        change[0] = True
        np.not_equal(q_s[1:], q_s[:-1], out=change[1:])
        change[1:] |= d_s[1:] != d_s[:-1]
        starts = np.flatnonzero(change)
        sums = np.add.reduceat(c_s, starts)
        return {"q_id": q_s[starts], "doc_id": d_s[starts],
                "score_milli": sums}

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(["q_id", "score_milli", "doc_id"],
                               ascending=[True, False, True],
                               kind="mergesort")
                .groupby("q_id", sort=False).head(k))

    scored = (m.map_batches(contrib, batch_format="pyarrow",
                            zero_copy_batch=True)
              .groupby("pk").map_groups(score_group, batch_format="numpy")
              .map_batches(local_topk, batch_format="pandas"))
    top = _to_arrow(scored).to_pandas()
    top = (top.sort_values(["q_id", "score_milli", "doc_id"],
                           ascending=[True, False, True],
                           kind="mergesort")
           .groupby("q_id", sort=False).head(k).reset_index(drop=True))
    top["rnk"] = top.groupby("q_id", sort=False).cumcount() + 1
    return pa.table({
        "q_id": pa.array(top["q_id"].to_numpy(np.int64)),
        "rnk": pa.array(top["rnk"].to_numpy(np.int64)),
        "doc_id": pa.array(top["doc_id"].to_numpy(np.int64)),
        "score_milli": pa.array(top["score_milli"].to_numpy(np.int64)),
    })


def conv_flatten(turns_ds, rows_per_group: int = 4000):
    """Per-conversation training-document assembly: restore stable
    ``(conv_id, turn_idx)`` order and concatenate each conversation's
    turns into ONE flat ``role: text`` document — the step that turns a
    transcript table into LLM pre-training documents (the reference's
    docbin corpus is exactly such flattened conversations; north-rule
    "turns restored to stable order" applied as a materialising op).
    Output per conversation: turn count, flat-doc char count, and the
    md5 of the flat doc, so the oracle verifies the CONCATENATION —
    order, separator and payload — not just group sizes.

    Scale shape: ONE exchange.  Per-conversation grouping is coarse
    (``hash(conv_id)`` groups of ~``rows_per_group`` turns — conversations
    are many and small, and one Python group call per conversation is the
    anti-pattern); inside a group a single mergesort + one pandas
    ``groupby.agg(join)`` assembles every conversation vectorised.  A
    conversation longer than a block would need the windowed
    ``(conv_id, turn_idx // 5000)`` key + a stitch pass (the annotate
    stage's convention) — documented, not hit by this corpus."""
    n_rows = turns_ds.count()            # parquet metadata, no scan
    n_groups = int(max(32, n_rows // rows_per_group))

    def pre(t: pa.Table) -> pa.Table:
        conv = t.column("conv_id").to_numpy(zero_copy_only=False)
        gk = (pd.util.hash_array(conv.astype(object))
              % np.uint64(n_groups)).astype(np.int64)
        return pa.table({
            "conv_id": t.column("conv_id"),
            "turn_idx": pc.cast(t.column("turn_idx"), pa.int64()),
            "role": t.column("role"),
            "text": t.column("text"),
            "gk": pa.array(gk),
        })

    def flatten(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        lines = (df["role"] + ": " + df["text"]).to_numpy(dtype=object)
        conv = df["conv_id"].to_numpy(dtype=object)
        starts = np.flatnonzero(
            np.concatenate(([True], conv[1:] != conv[:-1])))
        seg_len = np.diff(np.append(starts, len(conv)))
        docs = ["\n".join(lines[s:s + n])
                for s, n in zip(starts, seg_len)]
        return pa.table({
            "conv_id": pa.array(conv[starts].tolist(), pa.string()),
            "n_turns": pa.array(seg_len.astype(np.int64)),
            "n_chars": pa.array([len(d) for d in docs], pa.int64()),
            "doc_md5": pa.array(
                [hashlib.md5(d.encode("utf-8")).hexdigest()
                 for d in docs], pa.string()),
        })

    # empty groupby partitions emit SCHEMA-LESS blocks (the round-4
    # Dataset.join crash class); guard before the sort, which otherwise
    # logs a schema-mismatch warning (_coalesce_schema_less)
    return _coalesce_schema_less(
        turns_ds.map_batches(pre, batch_format="pyarrow",
                             zero_copy_batch=True)
        .groupby("gk").map_groups(flatten, batch_format="pandas")
    ).sort("conv_id")


def chunk_text(sf_dir: str, size: int = 512, stride: int = 384):
    """Overlapping fixed-window chunking of documents — the context-
    chunking step of RAG indexing / long-doc training prep: char windows
    of ``size`` advancing by ``stride`` (``size - stride`` chars of
    overlap), last window ragged, empty docs dropped.  Emits
    ``(doc_id, chunk_idx, n_chars, chunk_md5)`` so the oracle verifies
    every chunk boundary AND payload (md5 of the exact substring).

    Scale shape: a pure ``flat_map``-style ``map_batches`` stage — no
    shuffle, runs at read bandwidth; output rows amplify the input
    ~``1/stride`` per char, so blocks stay bounded by the input block
    size × (1 + size/stride).  Chunk windows are CHARACTER-based on both
    sides (Python slicing and DuckDB ``substring`` both count code
    points), so parity holds for any unicode payload."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def chunks(batch: pd.DataFrame) -> pa.Table:
        ids: list[int] = []
        idxs: list[int] = []
        lens: list[int] = []
        md5s: list[str] = []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            if not isinstance(text, str) or not text:
                continue
            n = len(text)
            nc = 1 if n <= size else (n - size + stride - 1) // stride + 1
            for i in range(nc):
                c = text[i * stride: i * stride + size]
                ids.append(int(doc_id))
                idxs.append(i)
                lens.append(len(c))
                md5s.append(hashlib.md5(c.encode("utf-8")).hexdigest())
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "chunk_idx": pa.array(idxs, pa.int64()),
            "n_chars": pa.array(lens, pa.int64()),
            "chunk_md5": pa.array(md5s, pa.string()),
        })

    return (ds.map_batches(chunks, batch_format="pandas")
            .sort(["doc_id", "chunk_idx"]))


def bigram_lift(sf_dir: str, min_cnt: int = 5, k: int = 50):
    """Collocation detection: the ``k`` adjacent word pairs with the
    highest LIFT — observed bigram frequency over the frequency expected
    if first and second position were independent — restricted to pairs
    seen ≥ ``min_cnt`` times (textbook association mining over a corpus;
    the phrase-vocabulary step of tokenizer construction).  Lift stays on
    the integer grid so the oracle hash-matches: with ``N`` total bigram
    occurrences, ``ca``/``cb`` the left/right marginal counts, ::

        lift_ppm = (cnt * N * 1_000_000) // (ca * cb)

    evaluated in arbitrary precision (Python int / DuckDB HUGEINT — the
    product overflows int64 at corpus scale), ties broken ``(a, b)``
    ascending.

    Scale shape: per-block ``np.unique`` bigram partials (the
    :func:`ngram_topk` combiner — the exchange carries (bigram,
    partial_count) rows, never occurrences) → coarse ``hash(bigram)``
    groups for exact counts → the small exact table is materialised
    (vocabulary-sized, object-store-resident) and re-grouped twice by
    ``hash(a)`` then ``hash(b)``, each group attaching its marginal with
    one in-group vectorised ``transform('sum')`` — marginals need no
    driver round-trip and no join.  Each final group emits only its
    LOCAL top-k by exact integer lift (int64-vectorised when the
    products fit, per-row bigint inside the group otherwise), so the
    driver merge sees O(groups × k) rows — never the ``cnt ≥ min_cnt``
    survivor set, which is corpus-vocabulary-scale on a web corpus."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    n_groups = 4 * _join_partitions()

    def partial(t: pa.Table) -> pa.Table:
        return _ngram_count_rows(t, 2, n_groups)

    def exact(df: pd.DataFrame) -> pa.Table:
        g = (df.groupby("ngram", sort=False, as_index=False)["cnt"].sum())
        parts = g["ngram"].str.partition(" ")
        a, b = parts[0].to_numpy(object), parts[2].to_numpy(object)
        return pa.table({
            "a": pa.array(a.tolist(), pa.string()),
            "b": pa.array(b.tolist(), pa.string()),
            "cnt": pa.array(g["cnt"].to_numpy(np.int64)),
            "gka": pa.array((pd.util.hash_array(a)
                             % np.uint64(n_groups)).astype(np.int64)),
        })

    bi = (ds.map_batches(partial, batch_format="pyarrow",
                         zero_copy_batch=True)
          .groupby("gk").map_groups(exact, batch_format="pandas")
          .materialize())               # vocabulary-sized, spillable
    n_total = int(bi.sum("cnt") or 0)
    if n_total == 0:
        return pa.table({"rnk": pa.array([], pa.int64()),
                         "a": pa.array([], pa.string()),
                         "b": pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64()),
                         "lift_ppm": pa.array([], pa.int64())})

    def attach_ca(df: pd.DataFrame) -> pa.Table:
        ca = df.groupby("a", sort=False)["cnt"].transform("sum")
        b = df["b"].to_numpy(object)
        return pa.table({
            "a": pa.array(df["a"].to_numpy(object).tolist(), pa.string()),
            "b": pa.array(b.tolist(), pa.string()),
            "cnt": pa.array(df["cnt"].to_numpy(np.int64)),
            "ca": pa.array(ca.to_numpy(np.int64)),
            "gkb": pa.array((pd.util.hash_array(b)
                             % np.uint64(n_groups)).astype(np.int64)),
        })

    def attach_cb(df: pd.DataFrame) -> pa.Table:
        # the LOCAL top-k by exact lift leaves each group (top-k of the
        # union == top-k over per-group top-ks, since every non-selected
        # row is dominated by k rows in its own group) — the driver
        # merges O(groups × k) rows, never the cnt ≥ min_cnt survivors
        cb = df.groupby("b", sort=False)["cnt"].transform("sum")
        out = df[df["cnt"] >= min_cnt]
        cnt = out["cnt"].to_numpy(np.int64)
        ca = out["ca"].to_numpy(np.int64)
        cbv = cb.loc[out.index].to_numpy(np.int64)
        if len(cnt) == 0:
            return pa.table({"a": pa.array([], pa.string()),
                             "b": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64()),
                             "lift_ppm": pa.array([], pa.int64())})
        # exact integer lift, vectorised in int64 whenever both the
        # numerator and the denominator fit (always at bench scales);
        # the per-row Python-bigint branch only triggers at corpus
        # sizes where the products exceed 2^63 — and then it runs
        # INSIDE the distributed group, not on the driver
        if (int(cnt.max()) * n_total * 1_000_000 < 2 ** 63
                and int(ca.max()) * int(cbv.max()) < 2 ** 63):
            lift = (cnt * np.int64(n_total) * np.int64(1_000_000)) \
                // (ca * cbv)
        else:
            lift = np.fromiter(
                ((int(c) * n_total * 1_000_000) // (int(x) * int(y))
                 for c, x, y in zip(cnt, ca, cbv)),
                np.int64, len(cnt))
        loc = pd.DataFrame({
            "a": out["a"].to_numpy(object),
            "b": out["b"].to_numpy(object),
            "cnt": cnt, "lift_ppm": lift})
        loc = (loc.sort_values(["lift_ppm", "a", "b"],
                               ascending=[False, True, True],
                               kind="mergesort").head(k))
        return pa.table({
            "a": pa.array(loc["a"].tolist(), pa.string()),
            "b": pa.array(loc["b"].tolist(), pa.string()),
            "cnt": pa.array(loc["cnt"].to_numpy(np.int64)),
            "lift_ppm": pa.array(loc["lift_ppm"].to_numpy(np.int64)),
        })

    surv = _to_arrow(bi.groupby("gka")
                     .map_groups(attach_ca, batch_format="pandas")
                     .groupby("gkb")
                     .map_groups(attach_cb, batch_format="pandas")) \
        .to_pandas()
    if len(surv) == 0:
        return pa.table({"rnk": pa.array([], pa.int64()),
                         "a": pa.array([], pa.string()),
                         "b": pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64()),
                         "lift_ppm": pa.array([], pa.int64())})
    surv = (surv.sort_values(["lift_ppm", "a", "b"],
                             ascending=[False, True, True],
                             kind="mergesort")
            .head(k).reset_index(drop=True))
    return pa.table({
        "rnk": pa.array(np.arange(1, len(surv) + 1, dtype=np.int64)),
        "a": pa.array(surv["a"].tolist(), pa.string()),
        "b": pa.array(surv["b"].tolist(), pa.string()),
        "cnt": pa.array(surv["cnt"].to_numpy(np.int64)),
        "lift_ppm": pa.array(surv["lift_ppm"].to_numpy(np.int64)),
    })


def cooccur_pmi(sf_dir: str, window: int = 3, min_cnt: int = 5,
                k: int = 50):
    """Windowed co-occurrence PMI — the word2vec/GloVe-style collocation
    measure: the ``k`` UNORDERED token pairs co-occurring within
    ``window`` positions whose observed pair frequency most exceeds the
    unigram-independence expectation, restricted to pairs seen
    ≥ ``min_cnt`` times.  The score stays on the integer grid so the
    DuckDB oracle hash-matches: with ``n_tok`` total tokens, ``n_pairs``
    total windowed pair slots, and ``ca``/``cb`` the unigram counts, ::

        pmi_ppm = (cnt * n_tok * n_tok * 1_000_000)
                  // (ca * cb * n_pairs)

    (1e6 × the PMI ratio before the log — monotone in PMI, exact in
    arbitrary precision; the products overflow int64 at any real corpus
    size).  Pairs are canonicalised lexicographically (bytewise UTF-8 —
    DuckDB's ``least``/``greatest`` collation), ties broken ``(a, b)``
    ascending.

    Scale shape: per-block Arrow-native partials
    (:func:`_skipgram_count_rows` — shifted-slice compares, the exchange
    carries (pair, partial_count) rows, never occurrences) → coarse
    ``hash(pair)`` groups for exact counts; unigram marginals come from
    the same combiner at ``n = 1`` and attach via the guarded
    vocabulary broadcast (:func:`_attach_token_stat` — ``ray.put`` once,
    ``pc.index_in`` probe per block; ONE materialised ``Dataset.join``
    per side above ``_VOCAB_BROADCAST_MAX``).  Unlike
    :func:`bigram_lift`, the marginals are unigram — independent of the
    pair table — so the ``cnt ≥ min_cnt`` filter runs BEFORE the attach
    and only survivors carry marginals.  Ranking is per-block local
    top-k: a vectorised float64 prefilter keeps every row within one
    full floor unit plus a 1e-9 relative guard band of the in-block
    kth score (the order key is the FLOORED ratio, so floored ties
    can sit a full ppm unit apart in real-ratio terms; double error
    is ~1e-15, so no exact-top-k row can be excluded), survivors are
    rescored with exact Python bigints INSIDE the block, and the driver
    merges O(blocks × k) rows — never the survivor set."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    n_groups = 4 * _join_partitions()
    empty_out = pa.table({"rnk": pa.array([], pa.int64()),
                          "a": pa.array([], pa.string()),
                          "b": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64()),
                          "pmi_ppm": pa.array([], pa.int64())})

    def pair_partial(t: pa.Table) -> pa.Table:
        return _skipgram_count_rows(t, window, n_groups)

    def exact_pairs(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("ngram", sort=False, as_index=False)["cnt"].sum()
        parts = g["ngram"].str.partition(" ")
        return pa.table({
            "token": pa.array(parts[0].tolist(), pa.string()),  # side a
            "b": pa.array(parts[2].tolist(), pa.string()),
            "cnt": pa.array(g["cnt"].to_numpy(np.int64)),
        })

    pairs = _coalesce_schema_less(
        ds.map_batches(pair_partial, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("gk").map_groups(exact_pairs, batch_format="pandas")) \
        .materialize()                # pair-vocabulary-sized, spillable
    n_pairs = int(pairs.sum("cnt") or 0)
    if n_pairs == 0:
        return empty_out
    uni = _word_count_table(ds, n_groups)   # vocabulary-sized, once
    n_tok = int(uni.sum("cnt") or 0)

    def ren(col):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({"token": t.column("word"),
                             col: t.column("cnt")})
        return f

    surv = pairs.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("cnt"),
                                            pa.scalar(min_cnt))),
        batch_format="pyarrow", zero_copy_batch=True)
    # attach ca (side a is already the "token" column), then swap the
    # key to side b and attach cb; materialize between the two attaches
    # so a >_VOCAB_BROADCAST_MAX fallback never pipelines two joins
    # (round-4 finding: chained Dataset.joins deadlock the aggregator
    # pool)
    surv = _attach_token_stat(surv, uni.map_batches(
        ren("ca"), batch_format="pyarrow", zero_copy_batch=True), "ca") \
        .materialize()

    def swap_key(t: pa.Table) -> pa.Table:
        return pa.table({"a": t.column("token"),
                         "token": t.column("b"),
                         "cnt": t.column("cnt"),
                         "ca": t.column("ca")})

    surv = _attach_token_stat(
        surv.map_batches(swap_key, batch_format="pyarrow",
                         zero_copy_batch=True),
        uni.map_batches(ren("cb"), batch_format="pyarrow",
                        zero_copy_batch=True), "cb")
    q_num = n_tok * n_tok * 1_000_000         # exact Python int
    den_scale = n_pairs

    def local_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"a": pa.array([], pa.string()),
                             "b": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64()),
                             "pmi_ppm": pa.array([], pa.int64())})
        cnt = t.column("cnt").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ca = t.column("ca").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        cb = t.column("cb").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        f = (cnt.astype(np.float64) * float(q_num)
             / (ca.astype(np.float64) * cb.astype(np.float64)
                * float(den_scale)))
        if len(f) > k:
            kth = np.partition(f, len(f) - k)[len(f) - k]
            # the ORDER key is the FLOORED integer ratio, so the band
            # must cover a full floor unit: two rows can tie on
            # pmi_ppm while their real ratios differ by up to 1 ppm
            # unit — a bare relative band dropped the lex-smaller of
            # such a tie.  With F the kth floored value, every top-k
            # row has ratio ≥ F and kth float ≤ (F+1)(1+ε), so
            # f ≥ kth(1-1e-9) - 1 keeps them all (ε ~ 1e-15 ≪ 1e-9).
            keep = f >= kth * (1.0 - 1e-9) - 1.0
        else:
            keep = np.ones(len(f), bool)
        idx = np.flatnonzero(keep)
        a_s = t.column("a").take(pa.array(idx)).to_pylist()
        b_s = t.column("token").take(pa.array(idx)).to_pylist()
        c_s, ca_s, cb_s = cnt[idx], ca[idx], cb[idx]
        pmi = [(int(c) * q_num) // (int(x) * int(y) * den_scale)
               for c, x, y in zip(c_s, ca_s, cb_s)]
        if pmi and max(pmi) >= 2 ** 63:
            raise RuntimeError("pmi_ppm exceeds int64")
        order = sorted(range(len(pmi)),
                       key=lambda i: (-pmi[i], a_s[i], b_s[i]))[:k]
        return pa.table({
            "a": pa.array([a_s[i] for i in order], pa.string()),
            "b": pa.array([b_s[i] for i in order], pa.string()),
            "cnt": pa.array(c_s[[*order]] if order else [],
                            pa.int64()),
            "pmi_ppm": pa.array([pmi[i] for i in order], pa.int64()),
        })

    top = _to_arrow(surv.map_batches(local_topk, batch_format="pyarrow",
                                     zero_copy_batch=True)).to_pandas()
    if len(top) == 0:
        return empty_out
    top = (top.sort_values(["pmi_ppm", "a", "b"],
                           ascending=[False, True, True],
                           kind="mergesort")
           .head(k).reset_index(drop=True))
    return pa.table({
        "rnk": pa.array(np.arange(1, len(top) + 1, dtype=np.int64)),
        "a": pa.array(top["a"].tolist(), pa.string()),
        "b": pa.array(top["b"].tolist(), pa.string()),
        "cnt": pa.array(top["cnt"].to_numpy(np.int64)),
        "pmi_ppm": pa.array(top["pmi_ppm"].to_numpy(np.int64)),
    })


def _word_count_table(ds, n_groups: int):
    """Exact corpus ``(word, cnt)`` table — VOCABULARY-sized, the
    word-dict every tokenizer trainer operates on: per-block unique
    partials (:func:`_ngram_count_rows` at ``n = 1``) consolidated in
    coarse ``hash(word)`` groups; the exchange carries (word,
    partial_count) rows, never occurrences.  Materialised
    (object-store-resident, spillable) because callers iterate over
    it."""
    def partial(t: pa.Table) -> pa.Table:
        return _ngram_count_rows(t, 1, n_groups)

    def exact(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("ngram", sort=False, as_index=False)["cnt"].sum()
        return pa.table({
            "word": pa.array(g["ngram"].tolist(), pa.string()),
            "cnt": pa.array(g["cnt"].to_numpy(np.int64)),
        })

    return _coalesce_schema_less(
        ds.map_batches(partial, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("gk").map_groups(exact, batch_format="pandas")) \
        .materialize()


def bpe_pair_counts(sf_dir: str, k: int = 50):
    """The first iteration of BPE tokenizer training as a standalone
    query: the ``k`` most frequent ADJACENT CHARACTER pairs inside
    words, weighted by word frequency (overlap-inclusive, the classic
    Sennrich ``get_stats``), ties broken ``(lhs, rhs)`` ascending.

    Scale shape: the corpus collapses to the vocabulary-sized word-dict
    first (:func:`_word_count_table` — occurrences never leave their
    block), then each block slices its words into codepoint pairs with
    ``max_len - 1`` vectorised ``utf8_slice_codeunits`` passes over a
    shrinking mask (no per-row Python), consolidates locally, and
    ships (lhs, rhs, partial) rows into coarse ``hash(pair)`` groups
    that emit only their LOCAL top-k — the driver merges
    O(groups × k) rows."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    n_groups = 4 * _join_partitions()
    words = _word_count_table(ds, n_groups)
    empty = pa.table({"lhs": pa.array([], pa.string()),
                      "rhs": pa.array([], pa.string()),
                      "c": pa.array([], pa.int64()),
                      "gk": pa.array([], pa.int64())})
    empty_out = pa.table({"rnk": pa.array([], pa.int64()),
                          "lhs": pa.array([], pa.string()),
                          "rhs": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})

    def pairs_partial(t: pa.Table) -> pa.Table:
        w = t.column("word").combine_chunks()
        cnt = t.column("cnt").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nlen = pc.utf8_length(w).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        # descending-length order: words with nlen > i + 1 are a PREFIX
        # of the sorted block, so pass i costs O(that prefix), not a
        # full-block rescan — one pathological 100k-char token costs
        # 100k singleton slices, not 100k scans of the whole vocab
        order = np.argsort(-nlen, kind="stable")
        w_d = w.take(pa.array(order))
        nlen_d, cnt_d = nlen[order], cnt[order]
        max_len = int(nlen_d[0]) if len(nlen_d) else 0
        ls, rs, cs = [], [], []
        for i in range(max_len - 1):
            npref = int(np.searchsorted(-nlen_d, -(i + 2),
                                        side="right"))
            if npref == 0:
                break
            sub = w_d.slice(0, npref)
            ls.append(pc.utf8_slice_codeunits(sub, start=i, stop=i + 1))
            rs.append(pc.utf8_slice_codeunits(sub, start=i + 1,
                                              stop=i + 2))
            cs.append(cnt_d[:npref])
        if not ls:
            return empty
        df = pd.DataFrame({
            "lhs": pa.chunked_array(ls).combine_chunks().to_pandas(),
            "rhs": pa.chunked_array(rs).combine_chunks().to_pandas(),
            "c": np.concatenate(cs)})
        g = df.groupby(["lhs", "rhs"], sort=False, as_index=False)["c"] \
            .sum()
        key = (g["lhs"] + "\x1f" + g["rhs"]).to_numpy(object)
        return pa.table({
            "lhs": pa.array(g["lhs"].tolist(), pa.string()),
            "rhs": pa.array(g["rhs"].tolist(), pa.string()),
            "c": pa.array(g["c"].to_numpy(np.int64)),
            "gk": pa.array((pd.util.hash_array(key)
                            % np.uint64(n_groups)).astype(np.int64)),
        })

    def exact_top(df: pd.DataFrame) -> pa.Table:
        g = df.groupby(["lhs", "rhs"], sort=False, as_index=False)["c"] \
            .sum()
        g = g.sort_values(["c", "lhs", "rhs"],
                          ascending=[False, True, True],
                          kind="mergesort").head(k)
        return pa.table({
            "lhs": pa.array(g["lhs"].tolist(), pa.string()),
            "rhs": pa.array(g["rhs"].tolist(), pa.string()),
            "cnt": pa.array(g["c"].to_numpy(np.int64)),
        })

    top = _to_arrow(words.map_batches(pairs_partial,
                                      batch_format="pyarrow",
                                      zero_copy_batch=True)
                    .groupby("gk")
                    .map_groups(exact_top, batch_format="pandas")) \
        .to_pandas()
    if len(top) == 0:
        return empty_out
    top = (top.sort_values(["cnt", "lhs", "rhs"],
                           ascending=[False, True, True],
                           kind="mergesort")
           .head(k).reset_index(drop=True))
    return pa.table({
        "rnk": pa.array(np.arange(1, len(top) + 1, dtype=np.int64)),
        "lhs": pa.array(top["lhs"].tolist(), pa.string()),
        "rhs": pa.array(top["rhs"].tolist(), pa.string()),
        "cnt": pa.array(top["cnt"].to_numpy(np.int64)),
    })


def bpe_train(sf_dir: str, n_merges: int = 16):
    """Distributed BPE tokenizer training (Sennrich et al. 2016,
    arXiv:1508.07909) — learn ``n_merges`` merge rules over the corpus:
    each round picks the globally most frequent adjacent symbol pair
    (weighted by word frequency, overlap-inclusive counting, ties
    ``(lhs, rhs)`` ascending — the reference ``get_stats``/max
    contract), then rewrites every word by merging non-overlapping
    occurrences left-to-right.  Returns the merge table
    ``(rank, lhs, rhs, cnt)``; training stops early when the best pair
    occurs fewer than twice.  No word-boundary marker symbol (the
    simplified variant — consistent with the repo's whitespace token
    ops).

    Scale shape — the word-dict formulation every real trainer uses
    (HF tokenizers, SentencePiece): the corpus collapses ONCE to the
    vocabulary-sized ``(word, cnt)`` table; all ``n_merges`` iterations
    run over that table, never over occurrences.  Per round: per-block
    shifted-slice pair partials over the flattened symbol lists (Arrow
    ``list_flatten`` + numpy masks, weighted by word count) → coarse
    ``hash(pair)`` groups emit their local argmax → the driver picks
    the global best from O(groups) rows — the per-round exchange is
    pair-vocabulary-bounded partials, and the merge rewrite runs only
    on words whose symbol join contains the pair (vectorised
    ``match_substring`` prefilter; the rewrite itself is per-WORD
    Python over that filtered vocabulary slice, the accepted word-dict
    trainer shape).  Each round re-materialises the symbol table (a
    vocab-sized barrier that amortises with input).  No SQL oracle —
    iterative argmax with rewrites is not expressible — the rows-only
    driver check plus a brute-force reference-parity pytest cover
    it."""
    merges, _ = _bpe_train_state(
        read_table(sf_dir, "documents", columns=["text"]),
        4 * _join_partitions(), n_merges)
    if not merges:
        return pa.schema([("rank", pa.int64()), ("lhs", pa.string()),
                          ("rhs", pa.string()),
                          ("cnt", pa.int64())]).empty_table()
    return pa.table({
        "rank": pa.array([m[0] for m in merges], pa.int64()),
        "lhs": pa.array([m[1] for m in merges], pa.string()),
        "rhs": pa.array([m[2] for m in merges], pa.string()),
        "cnt": pa.array([m[3] for m in merges], pa.int64()),
    })


# word-dict size up to which BPE training runs driver-local: (word,
# cnt) rows at ~30 B plus symbol lists — 1M words ≈ 100 MB of Python
# state, well inside the driver heap.  Every real trainer (HF
# tokenizers, SentencePiece) collects the word-dict when it fits; the
# distributed per-round loop below exists for the web-scale vocabulary
# that doesn't.
_BPE_LOCAL_MAX = 1_000_000


def _bpe_train_state(ds, n_groups: int, n_merges: int,
                     local_max: int = _BPE_LOCAL_MAX):
    """The :func:`bpe_train` loop, returning ``(merges, final)`` where
    ``merges`` is the learned rule list ``[(rank, lhs, rhs, cnt), ...]``
    and ``final`` is the materialised ``(word, syms, cnt)`` Dataset —
    every corpus word encoded by the full merge sequence (what an
    encode-side consumer like :func:`bpe_token_count` probes).

    Two bit-identical paths, guarded on word-dict size (same contract
    as ``_VOCAB_BROADCAST_MAX``): ≤ ``local_max`` distinct words →
    collect the dict and run the reference Sennrich loop on the driver
    (the distributed loop pays ~2 Ray barriers per merge round — 9 s
    for 16 rounds at ANY corpus size, pure fixed cost); larger → the
    per-round distributed exchange.  The parity pytest pins both paths
    to the same merge trace."""
    words = _word_count_table(ds, n_groups)
    if words.count() <= local_max:
        wt = _to_arrow(words)
        wc = dict(zip(wt.column("word").to_pylist(),
                      (int(c) for c in wt.column("cnt").to_pylist())))
        syms_d = {w: list(w) for w in wc}
        merges: list[tuple[int, str, str, int]] = []
        for rank in range(1, n_merges + 1):
            stats: dict[tuple[str, str], int] = {}
            for w, syms in syms_d.items():
                c = wc[w]
                for i in range(len(syms) - 1):
                    k = (syms[i], syms[i + 1])
                    stats[k] = stats.get(k, 0) + c
            if not stats:
                break
            (l0, r0), c0 = min(stats.items(),
                               key=lambda kv: (-kv[1], kv[0]))
            if c0 < 2:
                break
            merges.append((rank, l0, r0, c0))
            for w, syms in syms_d.items():
                n = len(syms)
                if n < 2:
                    continue
                res, i, changed = [], 0, False
                while i < n:
                    if (i + 1 < n and syms[i] == l0
                            and syms[i + 1] == r0):
                        res.append(l0 + r0)
                        i += 2
                        changed = True
                    else:
                        res.append(syms[i])
                        i += 1
                if changed:
                    syms_d[w] = res
        wl = list(wc)
        final = rd.from_arrow(pa.table({
            "word": pa.array(wl, pa.string()),
            "syms": pa.array([syms_d[w] for w in wl],
                             pa.list_(pa.string())),
            "cnt": pa.array([wc[w] for w in wl], pa.int64()),
        })).materialize()
        return merges, final

    def init_syms(t: pa.Table) -> pa.Table:
        return pa.table({
            "word": t.column("word"),
            "syms": pa.array([list(s) for s in
                              t.column("word").to_pylist()],
                             pa.list_(pa.string())),
            "cnt": t.column("cnt"),
        })

    cur = words.map_batches(init_syms, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()
    pair_empty = pa.table({"lhs": pa.array([], pa.string()),
                           "rhs": pa.array([], pa.string()),
                           "c": pa.array([], pa.int64()),
                           "gk": pa.array([], pa.int64())})

    def pair_partial(t: pa.Table) -> pa.Table:
        syms = t.column("syms").combine_chunks()
        flat = pc.list_flatten(syms)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        n_per = pc.list_value_length(syms) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = t.column("cnt").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        wid = np.repeat(np.arange(len(n_per), dtype=np.int64), n_per)
        crep = np.repeat(cnt, n_per)
        m = len(flat) - 1
        if m <= 0:
            return pair_empty
        same = wid[:m] == wid[1:]
        l = flat.slice(0, m).filter(pa.array(same))
        r = flat.slice(1, m).filter(pa.array(same))
        df = pd.DataFrame({"lhs": l.to_pandas(), "rhs": r.to_pandas(),
                           "c": crep[:m][same]})
        g = df.groupby(["lhs", "rhs"], sort=False, as_index=False)["c"] \
            .sum()
        key = (g["lhs"] + "\x1f" + g["rhs"]).to_numpy(object)
        return pa.table({
            "lhs": pa.array(g["lhs"].tolist(), pa.string()),
            "rhs": pa.array(g["rhs"].tolist(), pa.string()),
            "c": pa.array(g["c"].to_numpy(np.int64)),
            "gk": pa.array((pd.util.hash_array(key)
                            % np.uint64(n_groups)).astype(np.int64)),
        })

    def group_argmax(df: pd.DataFrame) -> pa.Table:
        g = df.groupby(["lhs", "rhs"], sort=False, as_index=False)["c"] \
            .sum()
        g = g.sort_values(["c", "lhs", "rhs"],
                          ascending=[False, True, True],
                          kind="mergesort").head(1)
        return pa.table({
            "lhs": pa.array(g["lhs"].tolist(), pa.string()),
            "rhs": pa.array(g["rhs"].tolist(), pa.string()),
            "c": pa.array(g["c"].to_numpy(np.int64)),
        })

    merges: list[tuple[int, str, str, int]] = []
    for rank in range(1, n_merges + 1):
        cand = _to_arrow(cur.map_batches(pair_partial,
                                         batch_format="pyarrow",
                                         zero_copy_batch=True)
                         .groupby("gk")
                         .map_groups(group_argmax,
                                     batch_format="pandas")).to_pandas()
        if len(cand) == 0:
            break
        cand = cand.sort_values(["c", "lhs", "rhs"],
                                ascending=[False, True, True],
                                kind="mergesort").head(1)
        l0 = str(cand["lhs"].iloc[0])
        r0 = str(cand["rhs"].iloc[0])
        c0 = int(cand["c"].iloc[0])
        if c0 < 2:
            break
        merges.append((rank, l0, r0, c0))

        def apply_merge(t: pa.Table, l0=l0, r0=r0) -> pa.Table:
            syms = t.column("syms").combine_chunks()
            joined = pc.binary_join(syms, pa.scalar("\x1f"))
            # substring prefilter: never misses a true adjacency (the
            # join always contains lhs+sep+rhs there); rare false
            # positives just re-check in the per-word rewrite
            hit = pc.match_substring(joined, l0 + "\x1f" + r0)
            if isinstance(hit, pa.ChunkedArray):
                hit = hit.combine_chunks()
            hitnp = hit.to_numpy(zero_copy_only=False)
            if not hitnp.any():
                return t
            # only the hit rows round-trip through Python; untouched
            # rows stay zero-copy (late rounds rewrite a handful of
            # words — row order within the word-dict is irrelevant,
            # every consumer aggregates or probes by word)
            idx = pa.array(np.flatnonzero(hitnp))
            lists = syms.take(idx).to_pylist()
            for j, lst in enumerate(lists):
                res, i = [], 0
                n = len(lst)
                while i < n:
                    if (i + 1 < n and lst[i] == l0
                            and lst[i + 1] == r0):
                        res.append(l0 + r0)
                        i += 2
                    else:
                        res.append(lst[i])
                        i += 1
                lists[j] = res
            hit_t = pa.table({
                "word": t.column("word").take(idx),
                "syms": pa.array(lists, pa.list_(pa.string())),
                "cnt": t.column("cnt").take(idx),
            })
            return pa.concat_tables(
                [t.filter(pc.invert(hit)), hit_t],
                promote_options="default")

        cur = cur.map_batches(apply_merge, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    return merges, cur


def bpe_token_count(sf_dir: str, n_merges: int = 16):
    """Encode-side consumer of :func:`bpe_train`: per-document BPE token
    counts under freshly-learned merge rules — (doc_id, n_words,
    n_bpe_tokens), doc_id ascending.  Because BPE encoding of a word
    depends only on the word, the corpus never re-tokenises: the
    trained symbol table already holds every word's encoded length, so
    ``n_bpe_tokens = Σ_w tf(doc, w) · len(syms(w))``.

    Scale shape: the (word, n_syms) table is vocabulary-sized and
    attaches to per-block exact (doc_id, token, tf) rows via the
    guarded broadcast (:func:`_attach_token_stat`); per-block partial
    sums collapse to ≤ 1 row per (block, doc) before the single
    O(docs) ``hash(doc_id)``-group consolidation."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    n_groups = 4 * _join_partitions()
    _, final = _bpe_train_state(ds, n_groups, n_merges)
    if final.count() == 0:
        # corpus tokenised to zero words: an empty word-dict would make
        # the broadcast build side columnless — short-circuit instead
        return rd.from_arrow(pa.schema(
            [("doc_id", pa.int64()), ("n_words", pa.int64()),
             ("n_bpe_tokens", pa.int64())]).empty_table())

    def lens(t: pa.Table) -> pa.Table:
        return pa.table({
            "token": t.column("word"),
            "n_syms": pc.cast(pc.list_value_length(t.column("syms")),
                              pa.int64()),
        })

    tf = ds.map_batches(_tf_rows, batch_format="pyarrow",
                        zero_copy_batch=True)
    tf = _attach_token_stat(tf, final.map_batches(
        lens, batch_format="pyarrow", zero_copy_batch=True), "n_syms")

    def partial(t: pa.Table) -> pa.Table:
        doc = t.column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        tfv = t.column("tf").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        ns = t.column("n_syms").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.argsort(doc, kind="stable")
        d_s = doc[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], d_s[1:] != d_s[:-1]))) if len(d_s) else \
            np.array([], np.int64)
        keys = d_s[starts] if len(d_s) else d_s
        nw = np.add.reduceat(tfv[order], starts) if len(d_s) else tfv
        nb = np.add.reduceat((tfv * ns)[order], starts) if len(d_s) \
            else tfv
        return pa.table({
            "doc_id": pa.array(keys),
            "n_words": pa.array(nw.astype(np.int64)),
            "n_bpe_tokens": pa.array(nb.astype(np.int64)),
            "gk": pa.array(_coarse_key(keys, n_groups), pa.int64()),
        })

    def consolidate(df: pd.DataFrame) -> pa.Table:
        g = df.groupby("doc_id", sort=True, as_index=False) \
            [["n_words", "n_bpe_tokens"]].sum()
        return pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy(np.int64)),
            "n_words": pa.array(g["n_words"].to_numpy(np.int64)),
            "n_bpe_tokens": pa.array(
                g["n_bpe_tokens"].to_numpy(np.int64)),
        })

    return (tf.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("gk").map_groups(consolidate,
                                      batch_format="pandas")
            .sort("doc_id"))


def interarrival_stats(sf_dir: str, rows_per_group: int = 5000):
    """Per-user event inter-arrival statistics — the ordered ``lag()``
    window scan over the event stream (burst / churn analysis): for every
    user, the number of events, the number of consecutive-event gaps, and
    the exact sum and max of those gaps in integer microseconds, events
    ordered by ``(ts, event_id)``.

    Scale shape: ONE exchange, the :func:`running_total` pattern — coarse
    ``hash(user_id)`` groups (~``rows_per_group`` rows), one in-group
    ``lexsort``; gaps come from a single ``np.diff`` with cross-user
    boundary positions masked, per-user sums from two prefix-sum lookups
    (int64-exact), and the per-user max from ``np.maximum.reduceat`` over
    the masked diff (boundary slots carry int64.min, so they never win)."""
    ev = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "user_id"])
    n_rows = ev.count()
    n_groups = int(max(32, n_rows // rows_per_group))

    def pre(t: pa.Table) -> pa.Table:
        user = t.column("user_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "event_id": pc.cast(t.column("event_id"), pa.int64()),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "user_id": pa.array(user),
            "gk": pa.array(_coarse_key(user, n_groups), pa.int64()),
        })

    def scan(g: dict) -> dict:
        user = np.asarray(g["user_id"], np.int64)
        ts = np.asarray(g["ts_us"], np.int64)
        eid = np.asarray(g["event_id"], np.int64)
        order = np.lexsort((eid, ts, user))
        user_s, ts_s = user[order], ts[order]
        n = len(user_s)
        starts = np.flatnonzero(np.concatenate(
            ([True], user_s[1:] != user_s[:-1])))
        seg_len = np.diff(np.append(starts, n))
        d = np.diff(ts_s)                       # n-1 candidate gaps
        valid = user_s[1:] == user_s[:-1]       # same-user positions
        dsum = np.where(valid, d, 0)
        cum = np.concatenate(([0], np.cumsum(dsum)))
        ends = np.append(starts[1:], n)
        sum_gap = cum[ends - 1] - cum[starts]   # d[s : e-1] summed
        has_gap = seg_len >= 2
        max_gap = np.zeros(len(starts), np.int64)
        if d.size:
            dmax = np.where(valid, d, np.iinfo(np.int64).min)
            red = np.maximum.reduceat(
                dmax, np.minimum(starts, d.size - 1))
            max_gap[has_gap] = red[has_gap]
        return {"user_id": user_s[starts],
                "n_events": seg_len.astype(np.int64),
                "n_gaps": (seg_len - 1).astype(np.int64),
                "sum_gap_us": sum_gap.astype(np.int64),
                "max_gap_us": max_gap}

    return (ev.map_batches(pre, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("gk").map_groups(scan, batch_format="numpy")
            .sort("user_id"))


def histogram_numeric(sf_dir: str, width_cents: int = 2_500_000):
    """Fixed-width histogram of order totals — the classic distribution
    primitive (``width_bucket`` / numeric_histogram): bucket =
    ``cents // width`` on the exact integer-cents grid (:func:`_cents`),
    one row per non-empty bucket with its inclusive lower bound.

    Scale shape: per-block ``np.unique`` partial counts (the exchange
    carries at most ``n_buckets`` rows per block, never row counts) →
    one tiny ``groupby(bucket).Sum`` — the canonical pre-aggregated
    combiner; at 100 TB the shuffle is a few hundred rows."""
    orders = read_table(sf_dir, "orders", columns=["o_totalprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = _cents(t.column("o_totalprice")).to_numpy()
        bucket = cents // np.int64(width_cents)
        uniq, counts = np.unique(bucket, return_counts=True)
        return pa.table({"bucket": pa.array(uniq.astype(np.int64)),
                         "n": pa.array(counts.astype(np.int64))})

    out = (orders.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("bucket").aggregate(Sum("n", alias_name="n"))
           .sort("bucket"))

    def finalize(t: pa.Table) -> pa.Table:
        bucket = t.column("bucket").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "bucket": pa.array(bucket),
            "lo_cents": pa.array(bucket * np.int64(width_cents)),
            "n": pa.array(t.column("n").to_numpy(zero_copy_only=False)
                          .astype(np.int64)),
        })

    return out.map_batches(finalize, batch_format="pyarrow")


def _skyline_kernel(p: np.ndarray, d: np.ndarray
                    ) -> np.ndarray:
    """Boolean survivor mask for the 2-D max-max Pareto frontier:
    a row is dominated iff some other row is ≥ in both coordinates and
    > in at least one.  Vectorised: sort by (p desc, d desc); within an
    equal-``p`` group only the max-``d`` rows can survive, and they do
    iff that max strictly beats the best ``d`` seen at any strictly
    higher ``p`` (equal rows never dominate each other, so duplicates
    of a frontier point all survive)."""
    n = len(p)
    if n == 0:
        return np.zeros(0, bool)
    order = np.lexsort((-d, -p))
    ps, ds = p[order], d[order]
    starts = np.flatnonzero(np.concatenate(([True], ps[1:] != ps[:-1])))
    seg_len = np.diff(np.append(starts, n))
    gmax = ds[starts]                       # per-group max d (d sorted desc)
    prev = np.concatenate(
        ([np.iinfo(np.int64).min],
         np.maximum.accumulate(gmax)[:-1]))  # best d at strictly higher p
    grp_ok = gmax > prev
    keep_sorted = np.repeat(grp_ok, seg_len) & \
        (ds == np.repeat(gmax, seg_len))
    keep = np.zeros(n, bool)
    keep[order] = keep_sorted
    return keep


def skyline(sf_dir: str):
    """2-D Pareto frontier (skyline) of orders — maximise total price AND
    recency: the multi-criteria "best offers" primitive (no single row
    both pricier and more recent exists).  Exact on the integer grid
    (cents, epoch µs); duplicate frontier points all survive (equal rows
    never dominate each other).

    Scale shape: the skyline operator distributes as a pure combiner —
    ``skyline(union of per-block skylines) == global skyline`` (any
    globally dominated row is already dominated inside its own block by
    the same dominator's block-local survivor) — so each block reduces
    itself with one vectorised ``lexsort`` kernel, and only frontier
    candidates (tiny for non-adversarial data) reach the final
    single-group reduce."""
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_totalprice",
                                 "o_orderdate"])

    def local(t: pa.Table) -> pa.Table:
        cents = _cents(t.column("o_totalprice")).to_numpy()
        ts = pc.cast(t.column("o_orderdate"), pa.int64()).to_numpy()
        okey = t.column("o_orderkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        keep = _skyline_kernel(cents, ts)
        return pa.table({"o_orderkey": pa.array(okey[keep]),
                         "cents": pa.array(cents[keep]),
                         "ts_us": pa.array(ts[keep]),
                         "gk": pa.array(np.zeros(int(keep.sum()),
                                                 np.int64))})

    def final(g: dict) -> dict:
        p = np.asarray(g["cents"], np.int64)
        d = np.asarray(g["ts_us"], np.int64)
        okey = np.asarray(g["o_orderkey"], np.int64)
        keep = _skyline_kernel(p, d)
        return {"o_orderkey": okey[keep], "cents": p[keep],
                "ts_us": d[keep]}

    return (orders.map_batches(local, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("gk").map_groups(final, batch_format="numpy")
            .sort("o_orderkey"))


def snapshot_diff(sf_dir: str):
    """Snapshot delta (the CDC / incremental-ETL primitive): diff two
    deterministic versions of the orders table — snapshot A omits keys
    ``% 11 == 0`` (rows *added* later), snapshot B omits keys ``% 7 == 0``
    (rows *removed*) and reprices keys ``% 5 == 0`` one dollar higher
    (rows *changed*) — emitting ``(key, status, old_cents, new_cents)``
    with ``-1`` for the missing side (status ∈ added/removed/changed;
    unchanged rows are silent).

    Scale shape: both snapshots come off ONE column-pruned read each,
    and the diff is a single :func:`_cogroup` on ``o_orderkey`` — the
    full-outer-join-by-pk compare without a join operator: inside a
    group the union of both key sets lines up each key's old and new
    price, and vectorised masks classify them.  No driver-side state;
    output is the (small) delta only."""
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_totalprice"])
    n_rows = orders.count()
    n_groups = int(max(32, n_rows // 5000))

    def snap(newer: bool):
        def f(t: pa.Table) -> pa.Table:
            okey = t.column("o_orderkey").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            cents = _cents(t.column("o_totalprice")).to_numpy().copy()
            if newer:
                keep = okey % 7 != 0
                cents = np.where(okey % 5 == 0, cents + 100, cents)
            else:
                keep = okey % 11 != 0
            return pa.table({"o_orderkey": okey[keep],
                             "cents": cents[keep]})
        return orders.map_batches(f, batch_format="pyarrow",
                                  zero_copy_batch=True)

    def diff(old_t: pa.Table, new_t: pa.Table) -> dict:
        ko = old_t.column("o_orderkey").to_numpy(zero_copy_only=False)
        kn = new_t.column("o_orderkey").to_numpy(zero_copy_only=False)
        k = np.union1d(ko, kn)
        old = np.full(len(k), -1, np.int64)
        new = np.full(len(k), -1, np.int64)
        old[np.searchsorted(k, ko)] = \
            old_t.column("cents").to_numpy(zero_copy_only=False)
        new[np.searchsorted(k, kn)] = \
            new_t.column("cents").to_numpy(zero_copy_only=False)
        added = old == -1
        removed = new == -1
        changed = (~added) & (~removed) & (old != new)
        emit = added | removed | changed
        status = np.where(added, "added",
                          np.where(removed, "removed", "changed"))
        return {"o_orderkey": k[emit],
                "status": status[emit],
                "old_cents": old[emit],
                "new_cents": new[emit]}

    snap_schema = pa.schema([("o_orderkey", pa.int64()),
                             ("cents", pa.int64())])
    return _cogroup((snap(False), snap_schema), (snap(True), snap_schema),
                    "o_orderkey", n_groups, diff).sort("o_orderkey")


def customer_ltv(sf_dir: str, rows_per_group: int = 5000):
    """Customer lifetime value — the canonical 3-table enrichment
    pipeline (lineitem ⨝ orders ⨝ customer) without a single join
    operator: per customer, order count, gross revenue in exact cents
    (Σ ``l_extendedprice·(1−l_discount)`` over all their lineitems) and
    the latest order timestamp, carrying the customer's name and
    segment.

    Scale shape: three coarse-grouped exchanges, each over pre-combined
    rows — (1) lineitems pre-aggregate per order INSIDE each block
    (``np.unique`` + ``np.bincount`` — the exchange carries per-(block,
    order) partials, never lineitems), then per-order revenue reduces
    and pairs with the order rows in one :func:`_cogroup` on
    ``o_orderkey``; (2) the resulting (custkey, revenue, ts) rows reduce
    per customer in a ``hash(custkey)`` groupby; (3) customer attribute
    rows attach in a second :func:`_cogroup`, on ``c_custkey``."""
    li = read_table(sf_dir, "lineitem",
                    columns=["l_orderkey", "l_extendedprice",
                             "l_discount"])
    orders = read_table(sf_dir, "orders",
                        columns=["o_orderkey", "o_custkey",
                                 "o_orderdate"])
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_name", "c_mktsegment"])
    n_orders = orders.count()
    n_groups = int(max(32, n_orders // rows_per_group))

    def li_partial(t: pa.Table) -> pa.Table:
        okey = t.column("l_orderkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        disc = pc.multiply(
            pc.cast(t.column("l_extendedprice"), pa.float64()),
            pc.subtract(pa.scalar(1.0),
                        pc.cast(t.column("l_discount"), pa.float64())))
        cents = _cents(disc, factor=100.0).to_numpy()
        uniq, inv = np.unique(okey, return_inverse=True)
        rev = np.bincount(inv, weights=cents).astype(np.int64)
        return pa.table({"o_orderkey": uniq, "rev_cents": rev})

    def per_order(li_t: pa.Table, ord_t: pa.Table) -> dict:
        lk = li_t.column("o_orderkey").to_numpy(zero_copy_only=False)
        ok = ord_t.column("o_orderkey").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(np.concatenate([lk, ok]), return_inverse=True)
        total = np.bincount(
            inv[:len(lk)],
            weights=li_t.column("rev_cents").to_numpy(zero_copy_only=False),
            minlength=len(uniq)).astype(np.int64)
        cust_of = np.full(len(uniq), -1, np.int64)
        ts_of = np.full(len(uniq), -1, np.int64)
        cust_of[inv[len(lk):]] = \
            ord_t.column("o_custkey").to_numpy(zero_copy_only=False)
        ts_of[inv[len(lk):]] = \
            ord_t.column("ts_us").to_numpy(zero_copy_only=False)
        keep = cust_of >= 0            # orders absent from orders table
        ckk = cust_of[keep]
        return {"c_custkey": ckk,
                "rev_cents": total[keep],
                "ts_us": ts_of[keep],
                "n_orders": np.ones(len(ckk), np.int64),
                "gk2": _coarse_key(ckk, n_groups)}

    per_cust_in = _cogroup(
        (li.map_batches(li_partial, batch_format="pyarrow",
                        zero_copy_batch=True),
         pa.schema([("o_orderkey", pa.int64()), ("rev_cents", pa.int64())])),
        (orders.rename_columns({"o_orderdate": "ts_us"}),
         pa.schema([("o_orderkey", pa.int64()), ("o_custkey", pa.int64()),
                    ("ts_us", pa.int64())])),
        "o_orderkey", n_groups, per_order)

    def per_cust(g: dict) -> dict:
        ck = np.asarray(g["c_custkey"], np.int64)
        rev = np.asarray(g["rev_cents"], np.int64)
        ts = np.asarray(g["ts_us"], np.int64)
        cnt = np.asarray(g["n_orders"], np.int64)
        uniq, inv = np.unique(ck, return_inverse=True)
        return {"c_custkey": uniq,
                "n_orders": np.bincount(inv, weights=cnt)
                    .astype(np.int64),
                "gross_cents": np.bincount(inv, weights=rev)
                    .astype(np.int64),
                "last_order_ts_us": _segment_max(ts, inv, len(uniq))}

    def attach(agg: pa.Table, attr: pa.Table) -> pa.Table:
        # a customer with no orders is silent (inner semantics)
        return agg.join(attr, "c_custkey", join_type="inner").select(
            ["c_custkey", "c_name", "c_mktsegment", "n_orders",
             "gross_cents", "last_order_ts_us"])

    per_cust_ds = per_cust_in.groupby("gk2") \
        .map_groups(per_cust, batch_format="numpy")
    agg_schema = pa.schema([("c_custkey", pa.int64()),
                            ("n_orders", pa.int64()),
                            ("gross_cents", pa.int64()),
                            ("last_order_ts_us", pa.int64())])
    cust_schema = pa.schema([("c_custkey", pa.int64()),
                             ("c_name", pa.string()),
                             ("c_mktsegment", pa.string())])
    return _cogroup((per_cust_ds, agg_schema), (cust, cust_schema),
                    "c_custkey", n_groups, attach).sort("c_custkey")


def _segment_max(vals: np.ndarray, inv: np.ndarray, n_seg: int
                 ) -> np.ndarray:
    """Per-segment max via scatter (``np.maximum.at``), int64-exact."""
    out = np.full(n_seg, np.iinfo(np.int64).min, np.int64)
    np.maximum.at(out, inv, vals)
    return out


_PROPS_PATTERN = '"k":\\s*(?P<v>-?[0-9]+)'


def json_props_extract(sf_dir: str):
    """Semi-structured payload extraction — pull the integer ``k`` field
    out of the events' JSON ``props`` column and aggregate it per event
    type (the log-analytics staple: a typed value buried in a JSON
    blob).  Extraction is the SHARED RE2 pattern ``_PROPS_PATTERN``
    evaluated by ``pc.extract_regex`` in the engine and DuckDB
    ``regexp_extract`` in the oracle — both are RE2, so a malformed or
    missing field drops the row identically on both sides.

    Scale shape: embarrassingly parallel — per-block regex extract +
    per-block per-type partials (``np.unique`` over a handful of types),
    then a tiny ``groupby(event_type)`` sum; the exchange carries a few
    rows per block."""
    ev = read_table(sf_dir, "events", columns=["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t.column("props"), _PROPS_PATTERN)
        ok = pc.is_valid(m)
        k = pc.cast(pc.struct_field(m.filter(ok), "v"), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        et = t.column("event_type").filter(ok) \
            .to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(et, return_inverse=True)
        # integer segment sum via np.add.at — a float-weighted bincount
        # loses exactness once |k| sums past 2^53 (the oracle sums in
        # BIGINT)
        sums = np.zeros(len(uniq), np.int64)
        np.add.at(sums, inv, k)
        return pa.table({
            "event_type": pa.array(uniq.tolist(), pa.string()),
            "n": pa.array(np.bincount(inv, minlength=len(uniq))
                          .astype(np.int64)),
            "sum_k": pa.array(sums),
            "max_k": pa.array(_segment_max(k, inv, len(uniq))),
        })

    return (ev.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("event_type")
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sum_k", alias_name="sum_k"),
                       Max("max_k", alias_name="max_k"))
            .sort("event_type"))


def funnel_stages(sf_dir: str,
                  steps: tuple = ("view", "click", "purchase"),
                  rows_per_group: int = 5000):
    """Ordered funnel analysis — for every user, how far they progressed
    through ``steps`` IN ORDER (each stage must occur strictly after the
    previous stage's first qualifying event, events ordered by
    ``(ts, event_id)``), with the exact µs timestamp of each reached
    stage (``-1`` beyond the last reached stage).  The product-analytics
    primitive sessionize/windows don't cover: sequential pattern
    progression.

    Scale shape: ONE exchange — the :func:`running_total` coarse
    ``hash(user_id)`` grouping, one in-group ``lexsort``; each stage is
    resolved for ALL users at once with a masked ``np.minimum.reduceat``
    over event positions (a stage-count × rows vector pass, no per-user
    Python)."""
    ev = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "user_id", "event_type"])
    n_rows = ev.count()
    n_groups = int(max(32, n_rows // rows_per_group))

    def pre(t: pa.Table) -> pa.Table:
        user = t.column("user_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "event_id": pc.cast(t.column("event_id"), pa.int64()),
            "ts_us": pc.cast(t.column("ts"), pa.int64()),
            "user_id": pa.array(user),
            "event_type": t.column("event_type"),
            "gk": pa.array(_coarse_key(user, n_groups), pa.int64()),
        })

    big = np.iinfo(np.int64).max

    def scan(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["user_id", "ts_us", "event_id"],
                            kind="mergesort")
        user = df["user_id"].to_numpy(np.int64)
        ts = df["ts_us"].to_numpy(np.int64)
        et = df["event_type"].to_numpy(object)
        n = len(user)
        pos = np.arange(n, dtype=np.int64)
        starts = np.flatnonzero(np.concatenate(
            ([True], user[1:] != user[:-1])))
        seg_id = np.cumsum(np.concatenate(
            ([False], user[1:] != user[:-1]))).astype(np.int64)
        n_seg = len(starts)
        red_idx = np.minimum(starts, max(n - 1, 0))
        prev = np.full(n_seg, -1, np.int64)     # position of prior stage
        out_ts = []
        reached = np.zeros(n_seg, np.int64)
        for step in steps:
            cand = np.where((et == step) & (pos > prev[seg_id]),
                            pos, big)
            first = np.minimum.reduceat(cand, red_idx) if n else \
                np.full(n_seg, big)
            hit = first < big
            t_step = np.where(hit, ts[np.minimum(first, n - 1)], -1)
            reached += hit.astype(np.int64)
            prev = np.where(hit, first, big)    # big: later stages dead
            out_ts.append(t_step.astype(np.int64))
        cols = {"user_id": pa.array(user[starts]),
                "n_stages": pa.array(reached)}
        for i in range(len(steps)):
            cols[f"t{i + 1}_us"] = pa.array(out_ts[i])
        return pa.table(cols)

    return (ev.map_batches(pre, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("gk").map_groups(scan, batch_format="pandas")
            .sort("user_id"))


def supplier_similarity(sf_dir: str, min_shared: int = 2,
                        rows_per_group: int = 5000):
    """Neighbor-set Jaccard similarity between suppliers in the bipartite
    supplier—part graph (nodes are similar when they source the same
    parts) — the node-similarity primitive behind co-purchase
    recommendation and graph-based entity blocking.  For each supplier
    pair sharing ≥ ``min_shared`` distinct parts:
    ``jaccard_micro = w · 1e6 // (deg_a + deg_b − w)`` on exact int64.

    Scale shape: the :func:`butterfly_count` wedge machinery (distinct-
    edge combiner → per-part triu wedges → coarse pair count) plus
    per-supplier distinct-part degrees from the same edge keys (a second
    tiny combiner pass); the degree table is supplier-cardinality —
    the SMALL side of a bipartite graph — so it is driver-folded and
    broadcast into the finalize stage (``ray.put`` once, read per
    block), not shuffled."""
    li = read_table(sf_dir, "lineitem", columns=["l_suppkey", "l_partkey"])
    n_rows = li.count()
    n_groups = int(max(32, n_rows // rows_per_group))

    def edge_partial(t: pa.Table) -> pa.Table:
        s = t.column("l_suppkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        p = t.column("l_partkey").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        uk = np.unique((p << np.int64(33)) | s)
        return pa.table({
            "k": pa.array(uk, pa.int64()),
            "gk": pa.array(_coarse_key(uk >> np.int64(33), n_groups),
                           pa.int64()),
        })

    edges = li.map_batches(edge_partial, batch_format="pyarrow",
                           zero_copy_batch=True)

    # -- per-supplier distinct-part degree: same keys, grouped by the
    # supplier half; small output, driver-folded then broadcast
    def deg_partial(g: dict) -> dict:
        k = np.unique(np.asarray(g["k"], np.int64))
        sup = k & ((np.int64(1) << np.int64(33)) - np.int64(1))
        uniq, counts = np.unique(sup, return_counts=True)
        return {"s": uniq, "d": counts.astype(np.int64)}

    deg_tbl = _to_arrow(
        li.map_batches(edge_partial, batch_format="pyarrow",
                       zero_copy_batch=True)
        .groupby("gk").map_groups(deg_partial, batch_format="numpy"))
    # distinct edges land in exactly one gk group (keyed on the part),
    # but a supplier spans groups: fold the per-group partial degrees
    sarr = deg_tbl.column("s").to_numpy(zero_copy_only=False)
    darr = deg_tbl.column("d").to_numpy(zero_copy_only=False)
    uniq_s, inv = np.unique(sarr, return_inverse=True)
    deg = np.bincount(inv, weights=darr).astype(np.int64)
    deg_lookup = np.zeros(int(uniq_s.max()) + 1 if len(uniq_s) else 1,
                          np.int64)
    deg_lookup[uniq_s] = deg
    deg_ref = ray.put(deg_lookup)

    tri_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def wedges(g: dict) -> dict:
        k = np.unique(np.asarray(g["k"], np.int64))
        part = k >> np.int64(33)
        sup = k & ((np.int64(1) << np.int64(33)) - np.int64(1))
        _, starts, counts = np.unique(part, return_index=True,
                                      return_counts=True)
        a_out, b_out = [], []
        for s0, c in zip(starts[counts >= 2], counts[counts >= 2]):
            u = sup[s0:s0 + c]
            tri = tri_cache.get(len(u))
            if tri is None:
                tri = tri_cache[len(u)] = np.triu_indices(len(u), k=1)
            a_out.append(u[tri[0]])
            b_out.append(u[tri[1]])
        if not a_out:
            return {"pk": np.empty(0, np.int64),
                    "s1": np.empty(0, np.int64),
                    "s2": np.empty(0, np.int64),
                    "gk2": np.empty(0, np.int64)}
        s1 = np.concatenate(a_out)
        s2 = np.concatenate(b_out)
        pk = (s1 << np.int64(33)) | s2
        return {"pk": pk, "s1": s1, "s2": s2,
                "gk2": _coarse_key(pk, n_groups)}

    def finalize(df: pd.DataFrame) -> pa.Table:
        deg_arr = ray.get(deg_ref)       # local object store, zero-copy
        g = (df.groupby(["pk"], sort=False)
             .agg(s1=("s1", "first"), s2=("s2", "first"),
                  w=("pk", "size")).reset_index(drop=True))
        g = g[g["w"] >= min_shared]
        s1 = g["s1"].to_numpy(np.int64)
        s2 = g["s2"].to_numpy(np.int64)
        w = g["w"].to_numpy(np.int64)
        union = deg_arr[s1] + deg_arr[s2] - w
        return pa.table({
            "s1": pa.array(s1), "s2": pa.array(s2),
            "w": pa.array(w),
            "jaccard_micro": pa.array(w * np.int64(1_000_000)
                                      // union),
        })

    return (edges.groupby("gk").map_groups(wedges, batch_format="numpy")
            .groupby("gk2").map_groups(finalize, batch_format="pandas")
            .sort(["s1", "s2"]))


def bfs_hops(sf_dir: str, max_iters: int = 16,
             rows_per_group: int = 5000):
    """Single-source BFS hop distance over the undirected bipartite
    supplier—part graph (source = the smallest supplier key) — the
    reachability / shortest-path primitive completing the graph family
    (pagerank, components, degrees, motifs, similarity).  Unreached
    nodes are absent from the output.

    Pregel shape (pinned graph, message-only iteration on stateless
    tasks — shared with :func:`pagerank` via :func:`_graph_shards`, and
    the same min-propagation kernel as :func:`dedup_clusters` with a hop
    increment of 1): a round delivers the pending (node, d) frontier
    messages to their owning shards, each shard settles first arrivals
    and floods ``d+1`` along its LOCAL edges, pre-deduped per
    destination and partitioned per target shard.  Only shards with
    pending messages run at all, so both the compute AND the exchange
    are bounded by the moving frontier, never the graph.  Synchronous
    rounds keep first-arrival distances identical for any shard count.
    The fixpoint is "no messages pending"; like :func:`dedup_clusters`,
    exceeding ``max_iters`` raises instead of returning wrong hops.  The
    oracle replays it as a depth-capped recursive CTE."""
    parts = _graph_shards(sf_dir, rows_per_group)
    li = read_table(sf_dir, "lineitem", columns=["l_suppkey"])
    dist, _LAST_GRAPH_EXCHANGE["bfs_hops"] = graph.min_propagate(
        parts, 1, int(li.min("l_suppkey")), max_iters, "bfs_hops")
    return rd.from_arrow_refs(
        graph.collect(parts, dist, ("node", "hops"))).sort("node")


def _levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (two-row DP) — the standard definition
    DuckDB's ``levenshtein()`` implements, so engine and oracle agree."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def part_fuzzy_match(sf_dir: str, max_dist: int = 3):
    """Entity-resolution fuzzy matching over part names — the
    blocking-then-verify pattern every record-linkage / KG-canonicalise
    pipeline runs: DEDUP to distinct names first (a combiner — raw rows
    are massively duplicated), block by a cheap key (the head noun, i.e.
    the second name token), and verify only within-block pairs with unit
    edit distance ≤ ``max_dist``.  Never an all-pairs pass over rows.

    Scale shape: per-block ``np.unique`` name partials → one coarse
    ``hash(block)`` groupby holds every name of a block; inside, names
    dedup globally and pairs come from a per-block ``triu``; the edit
    distance runs only on the (vocabulary-sized, not corpus-sized)
    surviving candidate pairs.  The oracle is the identical blocked
    ``levenshtein()`` self-join."""
    ds = read_table(sf_dir, "part", columns=["p_name"])
    n_groups = _join_partitions()

    def partial(t: pa.Table) -> pa.Table:
        names = np.unique(np.asarray(
            t.column("p_name").to_pylist(), object))
        # single-word names block on '' exactly like the oracle's
        # split_part(p_name, ' ', 2) (TPC-H p_name is always multi-word,
        # but the blocking rule must mirror the SQL on any input)
        blk = np.asarray([n.split(" ", 1)[1] if " " in n else ""
                          for n in names], object)
        return pa.table({
            "nm": pa.array(names.tolist(), pa.string()),
            "blk": pa.array(blk.tolist(), pa.string()),
            "gk": pa.array((pd.util.hash_array(blk)
                            % np.uint64(n_groups)).astype(np.int64)),
        })

    def match(df: pd.DataFrame) -> pa.Table:
        df = df.drop_duplicates("nm")
        a_out, b_out, d_out = [], [], []
        for _, grp in df.groupby("blk", sort=False):
            names = sorted(grp["nm"])
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    d = _levenshtein(names[i], names[j])
                    if d <= max_dist:
                        a_out.append(names[i])
                        b_out.append(names[j])
                        d_out.append(d)
        return pa.table({
            "a": pa.array(a_out, pa.string()),
            "b": pa.array(b_out, pa.string()),
            "dist": pa.array(d_out, pa.int64()),
        })

    return (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("gk").map_groups(match, batch_format="pandas")
            .sort(["a", "b"]))


_HLL_P = 8                              # 2^8 = 256 registers
_HLL_M = 1 << _HLL_P
_HLL_REM_BITS = 64 - _HLL_P             # 56-bit remainder field
_HLL_ALPHA_MICRO = 718273               # 0.7213/(1+1.079/256), fixed


def hll_distinct(sf_dir: str):
    """HyperLogLog distinct-token count — the OTHER canonical mergeable
    cardinality sketch beside :func:`distinct_token_kmv` (HLL is what
    production systems actually run: 256 one-byte registers vs KMV's k
    hashes).  Stays bit-exact end to end: token hash =
    ``md5_number_lower``; register ``M_b`` = max over the bucket of
    (trailing zeros of the 56-bit remainder + 1, 57 when zero); the raw
    estimate ``alpha·m²/Σ 2^−M_b`` is evaluated in ARBITRARY-PRECISION
    integers (numerator and the `2^(64−M)` table precomputed, floor
    division) so even the float-free estimator hash-matches the oracle's
    generated-CASE HUGEINT SQL.  Raw estimator only — the small-range
    linear-counting correction needs ln(), off the integer grid; both
    sides omit it identically.

    Scale shape: per-block distinct-token register partials (a 256-slot
    scatter-max per block) → ``groupby(bucket).Max`` over ≤ 256·blocks
    tiny rows — the textbook mergeable-sketch exchange; the driver folds
    256 registers."""
    ds = read_table(sf_dir, "documents", columns=["text"])

    def partial(batch: pd.DataFrame) -> pa.Table:
        toks: set = set()
        for text in batch["text"]:
            if isinstance(text, str):
                toks.update(_ws_tokens(text))
        if not toks:
            return pa.table({"bucket": pa.array([], pa.int64()),
                             "reg": pa.array([], pa.int64())})
        h = _stable_token_hashes(sorted(toks))
        bucket = (h >> np.uint64(_HLL_REM_BITS)).astype(np.int64)
        rem = h & np.uint64((1 << _HLL_REM_BITS) - 1)
        lb = rem & (~rem + np.uint64(1))          # lowest set bit
        rho = np.where(
            rem == 0, np.int64(_HLL_REM_BITS + 1),
            (np.log2(lb.astype(np.float64) + (rem == 0))  # exact: 2^k
             .astype(np.int64) + 1))
        regs = np.zeros(_HLL_M, np.int64)
        np.maximum.at(regs, bucket, rho)
        nz = np.flatnonzero(regs)
        return pa.table({"bucket": pa.array(nz.astype(np.int64)),
                         "reg": pa.array(regs[nz])})

    merged = _to_arrow(
        ds.map_batches(partial, batch_format="pandas")
        .groupby("bucket").aggregate(Max("reg", alias_name="reg")))
    regs = np.zeros(_HLL_M, np.int64)
    if merged.num_rows:
        b = merged.column("bucket").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        r = merged.column("reg").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        np.maximum.at(regs, b, r)
    v_zero = int((regs == 0).sum())
    s = sum(1 << (64 - int(m)) for m in regs)
    est = (_HLL_ALPHA_MICRO * _HLL_M * _HLL_M * (1 << 64)) \
        // (1_000_000 * s)
    return pa.table({
        "m": pa.array([_HLL_M], pa.int64()),
        "v_zero": pa.array([v_zero], pa.int64()),
        "reg_sum": pa.array([int(regs.sum())], pa.int64()),
        "est_raw": pa.array([est], pa.int64()),
    })


_CM_WIDTH = 1024
_CM_DEPTH = 4


def countmin_sketch(sf_dir: str):
    """Count-Min frequency sketch over token OCCURRENCES (with repeats —
    this is the frequency sketch, not a cardinality sketch): ``d = 4``
    rows × ``w = 1024`` counters, row-``r`` hash =
    ``md5_number_lower('r:' || token) % w``.  The registers are pure
    integer counts, so the whole 4096-counter sketch hash-matches the
    oracle; the point-query guarantee (estimate = min over rows ≥ true
    count) is pinned by pytest against exact counts.

    Scale shape: per-block scatter-add into a local (d, w) grid (one
    ``np.unique`` per block, counts ride the weights) → a single
    ``groupby(packed key).Sum`` over ≤ 4096·blocks rows — mergeable-
    sketch exchange, nothing proportional to the corpus crosses the
    wire."""
    ds = read_table(sf_dir, "documents", columns=["text"])

    def partial(batch: pd.DataFrame) -> pa.Table:
        toks: list[str] = []
        for text in batch["text"]:
            if isinstance(text, str):
                toks.extend(_ws_tokens(text))
        if not toks:
            return pa.table({"rb": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64())})
        uniq, counts = np.unique(np.asarray(toks, object),
                                 return_counts=True)
        grid = np.zeros((_CM_DEPTH, _CM_WIDTH), np.int64)
        for r in range(_CM_DEPTH):
            hr = np.fromiter(
                (int.from_bytes(
                    hashlib.md5(f"{r}:{w}".encode("utf-8")).digest()[8:],
                    "little") for w in uniq),
                np.uint64, len(uniq))
            np.add.at(grid[r], (hr % np.uint64(_CM_WIDTH))
                      .astype(np.int64), counts)
        rb, flat = np.flatnonzero(grid), grid.ravel()
        return pa.table({"rb": pa.array(rb.astype(np.int64)),
                         "cnt": pa.array(flat[rb])})

    def finalize(t: pa.Table) -> pa.Table:
        rb = t.column("rb").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        return pa.table({
            "rw": pa.array(rb // _CM_WIDTH),
            "bucket": pa.array(rb % _CM_WIDTH),
            "cnt": pc.cast(t.column("cnt"), pa.int64()),
        })

    return (_coalesce_schema_less(
                ds.map_batches(partial, batch_format="pandas")
                .groupby("rb").aggregate(Sum("cnt", alias_name="cnt")),
                n_parts=4)
            .map_batches(finalize, batch_format="pyarrow")
            .sort(["rw", "bucket"]))


def cm_point_estimate(sketch: pa.Table, token: str) -> int:
    """Count-Min point query: min over rows of the token's counter."""
    rw = sketch.column("rw").to_numpy(zero_copy_only=False)
    bucket = sketch.column("bucket").to_numpy(zero_copy_only=False)
    cnt = sketch.column("cnt").to_numpy(zero_copy_only=False)
    est = None
    for r in range(_CM_DEPTH):
        h = int.from_bytes(
            hashlib.md5(f"{r}:{token}".encode("utf-8")).digest()[8:],
            "little") % _CM_WIDTH
        hit = cnt[(rw == r) & (bucket == h)]
        v = int(hit[0]) if len(hit) else 0
        est = v if est is None else min(est, v)
    return int(est or 0)


def containment_pairs(sf_dir: str, shingle: int = 3, max_df: int = 50,
                      threshold_micro: int = 500_000):
    """Asymmetric near-CONTAINMENT pairs — ``C(A,B) = |A∩B| / |A|`` over
    distinct word-``shingle`` sets — the dedup case Jaccard misses: a
    short document embedded in a long one has tiny Jaccard but
    containment ≈ 1 (quote inclusion, boilerplate wrappers, doc
    concatenation).  Emits every pair whose larger directional
    containment reaches ``threshold_micro``, with both directions on the
    exact integer-micros grid.  Shingles present in more than ``max_df``
    documents are STOP-SHINGLES, excluded on both sides by spec (the
    standard guard that keeps shingle co-occurrence from going quadratic
    on boilerplate; the oracle applies the identical ``HAVING``).

    Scale shape: four coarse exchanges, none carrying text — (1)
    per-block distinct ``(shingle_hash, doc)`` rows group by
    ``hash(shingle)``, where each shingle's doc list dedups, the df cap
    applies, and the pair fan-out is the vectorised
    :func:`_segment_pairs` triu (never adjacency lists); kept-shingle
    size contributions ride along as ``(doc, 1)`` rows; (2) pair rows
    reduce to intersection counts in ``hash(a,b)`` groups; (3)/(4) the
    :func:`bigram_lift` marginal pattern attaches ``|A|`` then ``|B|``
    by re-grouping with the partial size rows, which consolidate
    in-group — sizes never need their own exchange."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    mh = MinHasher(shingle=shingle)
    n_groups = max(64, 4 * _join_partitions())

    def shingle_rows(batch: pd.DataFrame) -> pa.Table:
        hs, ds_ = [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            if not isinstance(text, str):
                continue
            h = np.unique(mh.shingles(text)).astype(np.int64)
            if h.size == 0:
                continue
            hs.append(h)
            ds_.append(np.full(h.size, doc_id, np.int64))
        if not hs:
            return pa.table({"h": pa.array([], pa.int64()),
                             "doc": pa.array([], pa.int64()),
                             "gk": pa.array([], pa.int64())})
        h = np.concatenate(hs)
        d = np.concatenate(ds_)
        return pa.table({"h": pa.array(h), "doc": pa.array(d),
                         "gk": pa.array(_coarse_key(h, n_groups))})

    def fan_out(g: dict) -> dict:
        h = np.asarray(g["h"], np.int64)
        d = np.asarray(g["doc"], np.int64)
        order = np.lexsort((d, h))
        h_s, d_s = h[order], d[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], h_s[1:] != h_s[:-1])))
        df = np.diff(np.append(starts, len(h_s)))
        keep = np.repeat(df <= max_df, df)
        h_k, d_k = h_s[keep], d_s[keep]
        a, b = _segment_pairs(d_k, h_k)
        # kind 0 = pair count row (keyed later by the packed pair),
        # kind 1 = per-doc kept-shingle size contribution
        pk = (a << np.int64(32)) | b          # needs doc_id < 2^32
        out_key = np.concatenate([pk, d_k])
        out_a = np.concatenate([a, d_k])
        out_b = np.concatenate([b, np.full(len(d_k), -1, np.int64)])
        out_kind = np.concatenate([np.zeros(len(a), np.int64),
                                   np.ones(len(d_k), np.int64)])
        return {"k": out_key, "a": out_a, "b": out_b,
                "kind": out_kind,
                "cnt": np.ones(len(out_key), np.int64),
                "gk2": _coarse_key(out_key, n_groups)}

    def reduce_pairs(g: dict) -> dict:
        # consolidate BOTH row kinds per packed key: pair rows sum to the
        # intersection, size rows sum to the doc's kept-shingle count
        k = np.asarray(g["k"], np.int64)
        cnt = np.asarray(g["cnt"], np.int64)
        kind = np.asarray(g["kind"], np.int64)
        a = np.asarray(g["a"], np.int64)
        b = np.asarray(g["b"], np.int64)
        # (key, kind) composite via lexsort — packing (k<<1)|kind would
        # overflow int64 once doc_id reaches 2^31 (k already uses the
        # top 32 bits), so the composite stays two columns
        order = np.lexsort((kind, k))
        k_s, kd_s = k[order], kind[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], (k_s[1:] != k_s[:-1]) | (kd_s[1:] != kd_s[:-1]))))
        seg_len = np.diff(np.append(starts, len(k_s)))
        cum = np.concatenate(([0], np.cumsum(cnt[order])))
        tot = cum[starts + seg_len] - cum[starts]
        sel = order[starts]
        ga = a[sel]
        return {"a": ga, "b": b[sel], "kind": kind[sel], "inter": tot,
                "ca": np.zeros(len(sel), np.int64),
                "gk3": _coarse_key(ga, n_groups)}

    def attach_ca(df: pd.DataFrame) -> pa.Table:
        sizes = df[df["kind"] == 1].set_index("a")["inter"]
        pairs = df[df["kind"] == 0].copy()
        size_rows = sizes.reset_index()
        out_a = pd.concat([pairs["a"], size_rows["a"]], ignore_index=True)
        out_b = pd.concat(
            [pairs["b"],
             pd.Series(np.full(len(size_rows), -1, np.int64))],
            ignore_index=True)
        out_kind = pd.concat(
            [pd.Series(np.zeros(len(pairs), np.int64)),
             pd.Series(np.ones(len(size_rows), np.int64))],
            ignore_index=True)
        out_inter = pd.concat(
            [pairs["inter"], size_rows["inter"]], ignore_index=True)
        out_ca = pd.concat(
            [pairs["a"].map(sizes).astype(np.int64),
             pd.Series(np.zeros(len(size_rows), np.int64))],
            ignore_index=True)
        key_b = pd.concat(
            [pairs["b"], size_rows["a"]], ignore_index=True) \
            .to_numpy(np.int64)
        return pa.table({
            "a": pa.array(out_a.to_numpy(np.int64)),
            "b": pa.array(out_b.to_numpy(np.int64)),
            "kind": pa.array(out_kind.to_numpy(np.int64)),
            "inter": pa.array(out_inter.to_numpy(np.int64)),
            "ca": pa.array(out_ca.to_numpy(np.int64)),
            "gk4": pa.array(_coarse_key(key_b, n_groups)),
        })

    def attach_cb(df: pd.DataFrame) -> pa.Table:
        sizes = df[df["kind"] == 1].set_index("a")["inter"]
        pairs = df[df["kind"] == 0]
        if len(pairs) == 0:
            return pa.table({
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "inter": pa.array([], pa.int64()),
                "ca": pa.array([], pa.int64()),
                "cb": pa.array([], pa.int64()),
                "cont_a_micro": pa.array([], pa.int64()),
                "cont_b_micro": pa.array([], pa.int64()),
            })
        inter = pairs["inter"].to_numpy(np.int64)
        ca = pairs["ca"].to_numpy(np.int64)
        cb = pairs["b"].map(sizes).to_numpy(np.int64)
        cont_a = inter * np.int64(1_000_000) // ca
        cont_b = inter * np.int64(1_000_000) // cb
        m = np.maximum(cont_a, cont_b) >= threshold_micro
        return pa.table({
            "a": pa.array(pairs["a"].to_numpy(np.int64)[m]),
            "b": pa.array(pairs["b"].to_numpy(np.int64)[m]),
            "inter": pa.array(inter[m]),
            "ca": pa.array(ca[m]), "cb": pa.array(cb[m]),
            "cont_a_micro": pa.array(cont_a[m]),
            "cont_b_micro": pa.array(cont_b[m]),
        })

    return (docs.map_batches(shingle_rows, batch_format="pandas")
            .groupby("gk").map_groups(fan_out, batch_format="numpy")
            .groupby("gk2").map_groups(reduce_pairs, batch_format="numpy")
            .groupby("gk3").map_groups(attach_ca, batch_format="pandas")
            .groupby("gk4").map_groups(attach_cb, batch_format="pandas")
            .sort(["a", "b"]))


def quantile_global(sf_dir: str, ps=(0.5, 0.95, 0.99)):
    """EXACT global quantiles of order totals without a global sort —
    the :func:`percentile_by_group` integer-cents histogram machinery
    with no group key: per-block ``np.unique`` cents partials → one tiny
    ``groupby(cents).Sum`` (the value-domain histogram is orders of
    magnitude smaller than the row count) → the driver folds the sorted
    histogram and applies DuckDB's ``quantile_disc`` index rule
    ``max(0, ceil(p·n) − 1)`` per requested quantile."""
    orders = read_table(sf_dir, "orders", columns=["o_totalprice"])
    n_groups = _join_partitions()

    def partial(t: pa.Table) -> pa.Table:
        cents = _cents(t.column("o_totalprice")).to_numpy()
        uniq, counts = np.unique(cents, return_counts=True)
        return pa.table({"cents": pa.array(uniq.astype(np.int64)),
                         "n": pa.array(counts.astype(np.int64)),
                         "gk": pa.array(_coarse_key(
                             uniq.astype(np.int64), n_groups))})

    def consolidate(g: dict) -> dict:
        # near-continuous values make the cents domain ~row-count sized,
        # where a full sort-aggregate costs 10 s at sf0.1 — coarse hash
        # groups + one in-group vectorised sum cost ~2 s (the
        # dedup_cdc_chunks lesson on a numeric domain)
        c = np.asarray(g["cents"], np.int64)
        n = np.asarray(g["n"], np.int64)
        uniq, inv = np.unique(c, return_inverse=True)
        return {"cents": uniq,
                "n": np.bincount(inv, weights=n).astype(np.int64)}

    hist = _to_arrow(orders.map_batches(partial, batch_format="pyarrow",
                                        zero_copy_batch=True)
                     .groupby("gk").map_groups(consolidate,
                                               batch_format="numpy"))
    df = hist.to_pandas().sort_values("cents").reset_index(drop=True)
    n = int(df["n"].sum())
    cum = df["n"].cumsum().to_numpy(np.int64)
    vals = df["cents"].to_numpy(np.int64)
    out_p, out_v = [], []
    for p in ps:
        idx = max(0, -(-int(p * 1_000_000) * n // 1_000_000) - 1) \
            if n else 0
        row = int(np.searchsorted(cum, idx + 1))
        out_p.append(int(p * 1_000_000))
        out_v.append(int(vals[row]) if n else -1)
    return pa.table({"p_micro": pa.array(out_p, pa.int64()),
                     "cents": pa.array(out_v, pa.int64())})


def _quantile_fold(ds, col: str, ps) -> list[int]:
    """Exact quantiles of an integer column by folding its value-domain
    histogram (per-block ``np.unique`` partials → coarse hash groups →
    driver fold), applying DuckDB's ``quantile_disc`` index rule
    ``max(0, ceil(p·n) − 1)`` with the SAME double arithmetic both
    engines use, so boundary indices match bit-for-bit."""
    import math
    n_groups = _join_partitions()

    def partial(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, counts = np.unique(v, return_counts=True)
        return pa.table({"v": pa.array(uniq),
                         "n": pa.array(counts.astype(np.int64)),
                         "gk": pa.array(_coarse_key(uniq, n_groups))})

    def consolidate(g: dict) -> dict:
        v = np.asarray(g["v"], np.int64)
        n = np.asarray(g["n"], np.int64)
        uniq, inv = np.unique(v, return_inverse=True)
        return {"v": uniq, "n": np.bincount(inv, weights=n)
                .astype(np.int64)}

    hist = _to_arrow(ds.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
                     .groupby("gk").map_groups(consolidate,
                                               batch_format="numpy"))
    df = hist.to_pandas().sort_values("v").reset_index(drop=True)
    n = int(df["n"].sum())
    cum = df["n"].cumsum().to_numpy(np.int64)
    vals = df["v"].to_numpy(np.int64)
    out = []
    for p in ps:
        idx = max(0, math.ceil(p * n) - 1) if n else 0
        out.append(int(vals[int(np.searchsorted(cum, idx + 1))])
                   if n else -1)
    return out


def ccnet_buckets(sf_dir: str):
    """CCNet-style quality bucketing — the canonical LM-filtered
    pre-training curation step (Wenzek et al. 2020): score every
    document under the corpus unigram LM (:func:`unigram_lm_score` —
    integer mean inverse probability, LOW = predictable = "head"),
    split the corpus at the exact score tertiles, and report per-bucket
    document/token mass.  Buckets: ``head`` (score ≤ p33), ``middle``
    (≤ p67), ``tail``.

    Scale shape: scores come off the LM-scoring pipeline once
    (materialised — doc-count-sized, spillable); the tertile boundaries
    are an exact value-domain histogram fold (:func:`_quantile_fold`,
    the `quantile_disc` index rule with bit-identical double
    arithmetic); assignment + per-bucket stats are one embarrassingly-
    parallel pass with a 3-row combiner exchange.  (At 100 TB the
    boundary fold swaps for fixed log-bins or a P²-sketch — the
    assignment pass is unchanged.)"""
    scores = unigram_lm_score(sf_dir).materialize()
    b1, b2 = _quantile_fold(scores, "lm_score_micro", (1 / 3, 2 / 3))

    def tag(t: pa.Table) -> pa.Table:
        s = t.column("lm_score_micro").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        nt = t.column("n_tokens").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        bucket = np.where(s <= b1, "head",
                          np.where(s <= b2, "middle", "tail"))
        uniq, inv = np.unique(bucket, return_inverse=True)
        return pa.table({
            "bucket": pa.array(uniq.tolist(), pa.string()),
            "n_docs": pa.array(np.bincount(inv, minlength=len(uniq))
                               .astype(np.int64)),
            "sum_tokens": pa.array(np.bincount(inv, weights=nt,
                                               minlength=len(uniq))
                                   .astype(np.int64)),
            "min_score_micro": pa.array(
                -_segment_max(-s, inv, len(uniq))),
            "max_score_micro": pa.array(_segment_max(s, inv, len(uniq))),
        })

    return (scores.map_batches(tag, batch_format="pyarrow",
                               zero_copy_batch=True)
            .groupby("bucket")
            .aggregate(Sum("n_docs", alias_name="n_docs"),
                       Sum("sum_tokens", alias_name="sum_tokens"),
                       Min("min_score_micro",
                           alias_name="min_score_micro"),
                       Max("max_score_micro",
                           alias_name="max_score_micro"))
            .sort("bucket"))


def corpus_curate(sf_dir: str, rows_per_group: int = 5000):
    """Quality-family APPLY — the curated corpus a pre-training pipeline
    actually keeps: documents that pass the Gopher repetition/length
    rules (:func:`gopher_quality` ``keep = 1``) AND fall outside the
    worst CCNet LM tertile (:func:`ccnet_buckets` ``tail``), i.e.
    ``lm_score_micro ≤ p67``.  The quality analogue of
    :func:`dedup_apply`: filters compose by INTERSECTION, and the output
    is the surviving (doc_id, n_words, lm_score_micro) projection.

    Scale shape: both flag streams are full-corpus-sized, so they meet
    in ONE :func:`_cogroup` exchange on ``doc_id`` (never a broadcast,
    never a ``Dataset.join`` aggregator) and each group kernel is a
    single Arrow inner join.  The tertile
    boundary reuses the exact value-domain histogram fold
    (:func:`_quantile_fold`) off the memoised LM scores."""
    scores = unigram_lm_score(sf_dir).materialize()
    (b2,) = _quantile_fold(scores, "lm_score_micro", (2 / 3,))
    # sorted upstreams can carry schema-less empty range blocks, which
    # BYPASS map_batches UDFs and would enter the union untagged — guard
    scores = _coalesce_schema_less(scores)
    gq = _coalesce_schema_less(gopher_quality(sf_dir))
    n_docs = scores.count()
    n_groups = max(32, n_docs // rows_per_group)

    def kept(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("keep"), 1))

    def below_p67(t: pa.Table) -> pa.Table:
        return t.filter(pc.less_equal(t.column("lm_score_micro"), int(b2)))

    def both(ok: pa.Table, lm: pa.Table) -> pa.Table:
        return ok.join(lm, "doc_id", join_type="inner")

    return _cogroup(
        (gq.map_batches(kept, batch_format="pyarrow", zero_copy_batch=True),
         pa.schema([("doc_id", pa.int64()), ("n_words", pa.int64())])),
        (scores.map_batches(below_p67, batch_format="pyarrow",
                            zero_copy_batch=True),
         pa.schema([("doc_id", pa.int64()),
                    ("lm_score_micro", pa.int64())])),
        "doc_id", n_groups, both).sort("doc_id")


def corpus_stats(sf_dir: str):
    """One-pass fused corpus statistics — the "dataset card" numbers
    (doc count, char/token mass, length extremes, empty-doc count) in a
    SINGLE scan with a one-row-per-block combiner, where running each
    stat as its own query would scan the corpus five times.  The
    pattern: every statistic here is a commutative monoid, so per-block
    partials fold associatively — the exchange is one row per block.
    Everything integer, so the oracle is one SQL aggregate row."""
    ds = read_table(sf_dir, "documents", columns=["text"])

    def partial(batch: pd.DataFrame) -> pa.Table:
        texts = [t if isinstance(t, str) else "" for t in batch["text"]]
        chars = np.array([len(t) for t in texts], np.int64)
        toks = np.array([len(_ws_tokens(t)) for t in texts], np.int64)
        return pa.table({
            "n_docs": pa.array([len(texts)], pa.int64()),
            "n_empty": pa.array([int((chars == 0).sum())], pa.int64()),
            "total_chars": pa.array([int(chars.sum())], pa.int64()),
            "total_tokens": pa.array([int(toks.sum())], pa.int64()),
            "max_chars": pa.array([int(chars.max()) if len(texts)
                                   else 0], pa.int64()),
            "min_chars": pa.array([int(chars.min()) if len(texts)
                                   else 0], pa.int64()),
        })

    t = _to_arrow(ds.map_batches(partial, batch_format="pandas"))
    df = t.to_pandas()
    return pa.table({
        "n_docs": pa.array([int(df["n_docs"].sum())], pa.int64()),
        "n_empty": pa.array([int(df["n_empty"].sum())], pa.int64()),
        "total_chars": pa.array([int(df["total_chars"].sum())],
                                pa.int64()),
        "total_tokens": pa.array([int(df["total_tokens"].sum())],
                                 pa.int64()),
        "max_chars": pa.array([int(df["max_chars"].max())], pa.int64()),
        "min_chars": pa.array([int(df["min_chars"].min())], pa.int64()),
    })
