"""Text analysis over the ``documents`` table: token counting, quality
scoring, language-ID, document fingerprinting.

All hot paths are vectorized pyarrow.compute regex/string kernels over
zero-copy Arrow batches (``batch_format="pyarrow"``); nothing iterates
Python rows except the md5/winnowing hash loops (hashlib is C).
Each stage is stateless → plain task-based ``map_batches`` (no actor pool
needed, no shuffle at all: embarrassingly parallel per block at 100 TB).
"""

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .common import round_half_up, read_table, hash63_keys

__all__ = ['doc_token_stats', 'doc_quality', 'lang_id', 'fingerprint_md5',
           'doc_scrub', 'doc_repetition', 'doc_chunks',
           'fingerprint_winnow', 'doc_token_bpe', 'token_frequencies',
           'doc_tfidf_topk', 'bigram_pmi_topk',
           'token_heavy_hitters', 'token_postings',
           'token_cooccur_topk', 'source_token_topk',
           'lang_fertility', 'LANG_FERTILITY_SQL',
           'doc_surprisal', 'DOC_SURPRISAL_SQL',
           'vocab_coverage', 'vocab_coverage_oracle_sql',
           'source_token_drift', 'SOURCE_TOKEN_DRIFT_SQL',
           'doc_ttr', 'DOC_TTR_SQL',
           'doc_length_outliers', 'DOC_LENGTH_OUTLIERS_SQL',
           'TOKEN_RE', 'BPE_RE',
           'STOPWORD_RE', 'PUNCT_RE', 'DIGIT_RE', 'LANG_MARKERS']

# Regexes shared verbatim with the DuckDB oracles (both engines are RE2).
TOKEN_RE = r'\S+'
# BPE-ish pre-tokenizer (GPT-2-style word/number/punct splits, RE2-safe:
# no lookahead) — the unit LLM token estimates are based on.
BPE_RE = r" ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"
NONSPACE_RE = r'\S'
STOPWORD_RE = r'\b(the|a|of|to|and|in|is|it|that|for|on|as|with|by)\b'
PUNCT_RE = r'[.,;:!?]'
DIGIT_RE = r'[0-9]'

# Language marker profiles (n-gram-heuristic language ID).  Tiebreak =
# first-listed wins; the oracle SQL reproduces this with a CASE ladder in
# the same order.
LANG_MARKERS = [
    ('en', r'\b(the|a|and|of|to)\b'),
    ('de', r'\b(der|die|das|und|ist)\b'),
    ('fr', r'\b(le|la|les|et|est)\b'),
    ('es', r'\b(el|los|las|y|es)\b'),
    ('zh', '[一-鿿]'),
]


def _read_docs(sf_dir, columns):
    return read_table(sf_dir, 'documents', columns=columns)


def _count_re(col, pattern):
    return pc.cast(pc.count_substring_regex(col, pattern=pattern), pa.int64())


def doc_token_stats(sf_dir):
    """Per-doc token count, char count, avg token length (half-up r4)."""
    def stats(batch: pa.Table) -> pa.Table:
        text = batch.column('text')
        n_tokens = _count_re(text, TOKEN_RE)
        n_nonspace = _count_re(text, NONSPACE_RE)
        nt = n_tokens.to_numpy(zero_copy_only=False).astype(np.float64)
        ns = n_nonspace.to_numpy(zero_copy_only=False).astype(np.float64)
        avg = np.where(nt > 0, round_half_up(np.divide(ns, np.maximum(nt, 1.0)), 4), 0.0)
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'n_tokens': n_tokens,
            'n_chars_calc': pc.cast(pc.utf8_length(text), pa.int64()),
            'avg_token_len': pa.array(avg, pa.float64()),
        })
    return _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        stats, batch_format='pyarrow', zero_copy_batch=True)


def doc_token_bpe(sf_dir):
    """BPE-ish token count per doc (LLM-token estimate) + chars/token."""
    def stats(batch: pa.Table) -> pa.Table:
        text = batch.column('text')
        n_bpe = _count_re(text, BPE_RE)
        n_chars = pc.cast(pc.utf8_length(text), pa.int64())
        nb = n_bpe.to_numpy(zero_copy_only=False).astype(np.float64)
        nc = n_chars.to_numpy(zero_copy_only=False).astype(np.float64)
        cpt = np.where(nb > 0, round_half_up(nc / np.maximum(nb, 1.0), 4), 0.0)
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'n_bpe_tokens': n_bpe,
            'chars_per_token': pa.array(cpt, pa.float64()),
        })
    return _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        stats, batch_format='pyarrow', zero_copy_batch=True)


# Quality keep-gate thresholds: doc_quality is their one home.  Its
# DuckDB oracle in registry.py spells the same literals; change both.
QUALITY_MIN_TOKENS = 5
QUALITY_MAX_TOKENS = 2000
QUALITY_MIN_STOPWORD_RATIO = 0.01


def quality_signals(text_col):
    """The quality gate over a text column: returns (n_tokens int64
    Arrow array, n_stopwords int64 Arrow array, stopword_ratio float64
    ndarray half-up r6, keep bool ndarray)."""
    n_tokens = _count_re(text_col, TOKEN_RE)
    n_stop = _count_re(text_col, STOPWORD_RE)
    nt = n_tokens.to_numpy(zero_copy_only=False)
    st = n_stop.to_numpy(zero_copy_only=False).astype(np.float64)
    ratio = np.where(nt > 0, round_half_up(st / np.maximum(nt, 1.0), 6), 0.0)
    keep = (nt >= QUALITY_MIN_TOKENS) & (nt <= QUALITY_MAX_TOKENS) \
        & (ratio > QUALITY_MIN_STOPWORD_RATIO)
    return n_tokens, n_stop, ratio, keep


def doc_quality(sf_dir):
    """Quality scoring: stopword/punct/digit counts, stopword ratio (r6),
    boolean keep-gate — the standard corpus-hygiene signals."""
    def quality(batch: pa.Table) -> pa.Table:
        text = batch.column('text')
        n_tokens, n_stop, ratio, is_quality = quality_signals(text)
        n_punct = _count_re(text, PUNCT_RE)
        n_digit = _count_re(text, DIGIT_RE)
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'n_tokens': n_tokens,
            'n_stopwords': n_stop,
            'n_punct': n_punct,
            'n_digits': n_digit,
            'stopword_ratio': pa.array(ratio, pa.float64()),
            'is_quality': pa.array(is_quality, pa.bool_()),
        })
    return _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        quality, batch_format='pyarrow', zero_copy_batch=True)


def lang_id(sf_dir):
    """Marker-word language ID: argmax of per-language marker counts,
    first-listed language wins ties; compared against the ``lang`` label."""
    def ident(batch: pa.Table) -> pa.Table:
        pred = _predict_lang(batch.column('text'))
        label = batch.column('lang').to_numpy(zero_copy_only=False)
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'pred_lang': pa.array(pred, pa.string()),
            'lang': batch.column('lang'),
            'is_match': pa.array(pred == label, pa.bool_()),
        })
    return _read_docs(sf_dir, ['doc_id', 'text', 'lang']).map_batches(
        ident, batch_format='pyarrow', zero_copy_batch=True)


def fingerprint_md5(sf_dir):
    """Exact-dup fingerprint: md5 hex of the utf-8 text (C-speed loop)."""
    def fp(batch: pa.Table) -> pa.Table:
        fps = [hashlib.md5(t.encode('utf-8')).hexdigest()
               for t in batch.column('text').to_pylist()]
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'fp': pa.array(fps, pa.string()),
        })
    return _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        fp, batch_format='pyarrow', zero_copy_batch=True)


def _gram_hash(gram):
    """63-bit k-gram hash shared with the DuckDB oracle:
    ``md5_number_lower(gram)`` = last 8 md5 digest bytes little-endian,
    masked to 63 bits so both sides carry it as int64/BIGINT."""
    d = hashlib.md5(gram.encode('utf-8')).digest()
    return int.from_bytes(d[8:16], 'little') & 0x7FFFFFFFFFFFFFFF


def winnow_fingerprints(text, k=5, w=4):
    """Winnowing (Schleimer et al., SIGMOD'03): rolling code-point k-gram
    hashes, per-window minimum selection.  Returns the selected hash set.
    K-grams are over CODE POINTS (not utf-8 bytes) and hashed with
    :func:`_gram_hash` so the DuckDB oracle (substr + md5_number_lower +
    windowed min) computes the identical set."""
    n = len(text) - k + 1
    if n <= 0:
        return set()
    hashes = np.fromiter((_gram_hash(text[i:i + k]) for i in range(n)),
                         dtype=np.uint64, count=n)
    if n <= w:
        return {int(hashes.min())}
    # sliding-window min via stride trick
    from numpy.lib.stride_tricks import sliding_window_view
    wins = sliding_window_view(hashes, w)
    return set(int(v) for v in wins.min(axis=1))


def fingerprint_winnow(sf_dir, k=5, w=4):
    """Per-doc winnowing summary: #fingerprints, min, max (rows-only)."""
    def fp(batch: pa.Table) -> pa.Table:
        ns, mins, maxs = [], [], []
        for t in batch.column('text').to_pylist():
            s = winnow_fingerprints(t, k, w)
            ns.append(len(s))
            mins.append(min(s) if s else 0)
            maxs.append(max(s) if s else 0)
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'n_fingerprints': pa.array(ns, pa.int64()),
            'min_fp': pa.array(mins, pa.int64()),
            'max_fp': pa.array(maxs, pa.int64()),
        })
    return _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        fp, batch_format='pyarrow', zero_copy_batch=True)


def _string_bucket(col, nb):
    """md5-bucket keys for a string column (first 8 digest bytes
    little-endian & (nb-1)) — the ONE home for the token/bigram bucket
    convention used by every co-partitioned text exchange here
    (token_frequencies, tf-idf df fold, PMI unigram/bigram folds)."""
    return pa.array(np.fromiter(
        (int.from_bytes(hashlib.md5(s.encode('utf-8')).digest()[:8],
                        'little') & (nb - 1)
         for s in col.to_pylist()),
        dtype=np.int64, count=len(col)), pa.int64())


def _token_count_partial(nb):
    """Per-block token-count combiner shared by token_frequencies and
    vocab_coverage: whitespace-split → flatten → drop the empty edge
    strings the split leaves — all Arrow kernels, no Python over tokens.
    Emits one (token, cnt, bucket) row per distinct token per block."""
    def partial(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(
            pc.split_pattern_regex(batch.column('text'), pattern=r'\s+'))
        flat = flat.filter(pc.not_equal(flat, ''))
        g = pa.table({'token': flat}).group_by('token') \
              .aggregate([('token', 'count')])
        g = g.rename_columns(['token', 'cnt'])
        return g.append_column('bucket',
                               _string_bucket(g.column('token'), nb))
    return partial


def token_frequencies(sf_dir, top_n=100, num_buckets=64):
    """Global heavy-hitters: the ``top_n`` most frequent whitespace tokens
    corpus-wide (count desc, token asc tie-break).

    Scale shape: per-block Arrow ``group_by`` count combiner (shuffle
    payload = one row per DISTINCT token per block, never raw tokens) →
    md5-bucketed exchange → per-bucket C++ sum fold → per-bucket LOCAL
    top_n (a token lives in exactly one bucket, so the global top_n is a
    subset of the union of bucket top_ns) → one driver-side sort of
    ≤ num_buckets·top_n candidate rows."""
    nb = num_buckets
    partial = _token_count_partial(nb)

    def fold(group: pa.Table) -> pa.Table:
        g = group.group_by('token').aggregate([('cnt', 'sum')])
        g = g.rename_columns(['token', 'n_occurrences'])
        g = g.sort_by([('n_occurrences', 'descending'),
                       ('token', 'ascending')]).slice(0, top_n)
        return pa.table({
            'token': g.column('token'),
            'n_occurrences': g.column('n_occurrences').cast(pa.int64()),
        })

    cand = _read_docs(sf_dir, ['text']).map_batches(
        partial, batch_format='pyarrow', zero_copy_batch=True) \
        .groupby('bucket').map_groups(fold, batch_format='pyarrow')
    # ≤ num_buckets·top_n candidate rows: tiny, finish driver-side
    tbl = cand.take_batch(max(1, num_buckets * top_n), batch_format='pyarrow')
    tbl = tbl.sort_by([('n_occurrences', 'descending'),
                       ('token', 'ascending')]).slice(0, top_n)
    n = tbl.num_rows
    return tbl.append_column('rank', pa.array(np.arange(1, n + 1), pa.int64()))


def _explode_tokens(batch: pa.Table, extra=None):
    """(doc_id, token) rows via Arrow list kernels — no Python per
    token.  THE one home for the tokenize rule that must stay in sync
    with the oracles' ``regexp_extract_all(text, '\\S+')`` (whitespace
    split + empty-edge filter).  ``extra`` replicates additional
    PER-DOC int64 columns (e.g. a precomputed doc bucket) onto the
    exploded rows."""
    toks = pc.split_pattern_regex(batch.column('text'), pattern=r'\s+')
    lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    ids = np.repeat(batch.column('doc_id').to_numpy(zero_copy_only=False),
                    lens)
    flat = pc.list_flatten(toks)
    data = {'doc_id': pa.array(ids, pa.int64()), 'token': flat}
    for name, vals in (extra or {}).items():
        data[name] = pa.array(np.repeat(vals, lens), pa.int64())
    t = pa.table(data)
    return t.filter(pc.not_equal(t.column('token'), ''))


def doc_tfidf_topk(sf_dir, k=3, num_buckets=64):
    """TF-IDF top-k terms per document: ``score = tf · ln(N / df)``,
    ranked (score desc, token asc).

    Two passes, both combiner-first:

      1. document frequencies — per block: distinct (doc, token) via
         Arrow group_by, then per-token partial counts (the exchange
         moves one row per distinct token per block, never raw tokens);
         an md5-bucketed groupby folds them, and the resulting VOCABULARY
         table is collected driver-side and broadcast (``ray.put`` once).
         Scale contract: the vocabulary — distinct tokens, NOT rows —
         must fit one machine; natural-language vocabularies (even
         web-scale ones, ~10⁸ tokens × (token, int64)) do.  Beyond that,
         swap the broadcast for a token-bucketed co-partition join;
      2. scoring — embarrassingly parallel per block, NO shuffle: per-doc
         tf via Arrow group_by, score in float64 with the same
         ``ln(N/df)`` expression the oracle uses, per-doc top-k via the
         shared lexsort + run-rank kernel (relational.rank_in_sorted_key).

    Output: (doc_id, token, score r6, rank)."""
    import ray
    from .relational import rank_in_sorted_key

    nb = num_buckets

    def df_partial(batch: pa.Table) -> pa.Table:
        dt = _explode_tokens(batch).group_by(['doc_id', 'token']).aggregate([])
        g = dt.select(['token']).group_by('token') \
              .aggregate([([], 'count_all')])
        g = g.rename_columns(['token', 'df'])
        return g.append_column('bucket', _string_bucket(g.column('token'), nb))

    def df_fold(group: pa.Table) -> pa.Table:
        g = group.group_by('token').aggregate([('df', 'sum')])
        return g.rename_columns(['token', 'df'])

    docs = _read_docs(sf_dir, ['doc_id', 'text'])
    df_ds = docs.map_batches(df_partial, batch_format='pyarrow',
                             zero_copy_batch=True) \
        .groupby('bucket').map_groups(df_fold, batch_format='pyarrow')
    # vocabulary-bounded (see docstring): collect + broadcast once
    df_map = {}
    for b in df_ds.iter_batches(batch_format='pyarrow', batch_size=None):
        df_map.update(zip(b.column('token').to_pylist(),
                          b.column('df').to_numpy(zero_copy_only=False)))
    n_docs = float(read_table(sf_dir, 'documents',
                              columns=['doc_id']).count())
    ref = ray.put((df_map, n_docs))

    def score(batch: pa.Table) -> pa.Table:
        from .common import _fetch_broadcast
        df_map_l, n = _fetch_broadcast(ref)
        tf = _explode_tokens(batch).group_by(['doc_id', 'token']) \
            .aggregate([([], 'count_all')])
        tf = tf.rename_columns(['doc_id', 'token', 'tf'])
        toks = tf.column('token').to_pylist()
        dfs = np.fromiter((df_map_l[t] for t in toks), dtype=np.float64,
                          count=len(toks))
        tfv = tf.column('tf').to_numpy(zero_copy_only=False).astype(np.float64)
        # same expression tree as the oracle: ln(N/df) * tf, in float64
        sc = np.log(n / dfs) * tfv
        ids = tf.column('doc_id').to_numpy(zero_copy_only=False)
        # token tie-break WITHOUT a padded '<U' numpy array (whose
        # per-element width is the longest token — one pathological
        # 100k-char token would make it O(rows × max_len)): dictionary-
        # encode in C++, sort only the tiny dictionary, lexsort on the
        # integer rank.  Arrow's sort is code-point order, matching the
        # oracle's binary string ORDER BY.
        tok_col = tf.column('token').combine_chunks()
        enc = tok_col.dictionary_encode()
        dorder = pc.sort_indices(enc.dictionary).to_numpy(
            zero_copy_only=False)
        drank = np.empty(len(dorder), np.int64)
        drank[dorder] = np.arange(len(dorder), dtype=np.int64)
        tok_rank = drank[enc.indices.to_numpy(zero_copy_only=False)]
        order = np.lexsort((tok_rank, -sc, ids))
        rank = rank_in_sorted_key(ids[order])
        keep = order[rank <= k]
        return pa.table({
            'doc_id': pa.array(ids[keep], pa.int64()),
            'token': tok_col.take(pa.array(keep, pa.int64())),
            'score': pa.array(round_half_up(sc[keep], 6), pa.float64()),
            'rank': pa.array(rank[rank <= k], pa.int64()),
        })

    return docs.map_batches(score, batch_format='pyarrow',
                            zero_copy_batch=True)


def bigram_pmi_topk(sf_dir, topk=50, min_support=5, num_buckets=64):
    """Top-k adjacent-token bigrams by pointwise mutual information —
    ``pmi = ln(c_ab·N_uni²  / (N_bi·c_a·c_b))`` with a support floor —
    the collocation-mining pass of a corpus-analysis pipeline.

    Scale shape: two combiner-first passes plus a no-shuffle scorer.

      1. unigram counts: token_frequencies' bucketed fold, collected and
         broadcast (vocabulary-bounded, like doc_tfidf_topk's df table);
      2. bigram counts: per block, adjacent pairs come from ONE Arrow
         ``binary_join_element_wise`` over the flattened token array
         (masked at document boundaries — all C++, no Python per token),
         partial-counted per block, folded per md5 bucket, MATERIALIZED
         once (so the N_bi total and the scoring pass don't re-run it);
         a bigram lives in exactly one bucket, so per-block top-k after
         the fold is a superset of the global top-k;
      3. scoring: broadcast unigram lookups + the identical float64
         expression the oracle uses, per-block top-k, one driver-side
         sort of ≤ blocks·topk candidate rows."""
    import ray
    from .relational import rank_in_sorted_key
    from .common import _fetch_broadcast

    nb = num_buckets

    def bigram_partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch.column('text'), pattern=r'\s+')
        flat = pc.list_flatten(toks)
        n = len(flat)
        if n < 2:
            return pa.table({'bg': pa.array([], pa.string()),
                             'cnt': pa.array([], pa.int64()),
                             'bucket': pa.array([], pa.int64())})
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        ends = np.cumsum(lens)                    # doc boundaries in flat
        joined = pc.binary_join_element_wise(flat.slice(0, n - 1),
                                             flat.slice(1, n - 1),
                                             pa.scalar(' '))
        nonempty = pc.not_equal(flat, '').to_numpy(zero_copy_only=False)
        same_doc = np.ones(n - 1, np.bool_)
        same_doc[ends[:-1] - 1] = False           # last token of each doc
        mask = same_doc & nonempty[:-1] & nonempty[1:]
        g = pa.table({'bg': joined.filter(pa.array(mask, pa.bool_()))}) \
            .group_by('bg').aggregate([([], 'count_all')])
        g = g.rename_columns(['bg', 'cnt'])
        return g.append_column('bucket', _string_bucket(g.column('bg'), nb))

    def bigram_fold(group: pa.Table) -> pa.Table:
        g = group.group_by('bg').aggregate([('cnt', 'sum')])
        return g.rename_columns(['bg', 'cnt'])

    docs = _read_docs(sf_dir, ['text'])

    # pass 1: unigram counts (vocabulary-bounded collect + broadcast)
    def uni_partial(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(
            pc.split_pattern_regex(batch.column('text'), pattern=r'\s+'))
        flat = flat.filter(pc.not_equal(flat, ''))
        g = pa.table({'token': flat}).group_by('token') \
              .aggregate([([], 'count_all')])
        g = g.rename_columns(['token', 'cnt'])
        return g.append_column('bucket', _string_bucket(g.column('token'), nb))

    uni_ds = docs.map_batches(uni_partial, batch_format='pyarrow',
                              zero_copy_batch=True) \
        .groupby('bucket').map_groups(
            lambda g: g.group_by('token').aggregate([('cnt', 'sum')])
                       .rename_columns(['token', 'cnt']),
            batch_format='pyarrow')
    uni_map = {}
    for b in uni_ds.iter_batches(batch_format='pyarrow', batch_size=None):
        uni_map.update(zip(b.column('token').to_pylist(),
                           b.column('cnt').to_numpy(zero_copy_only=False)))
    n_uni = float(sum(uni_map.values()))

    # pass 2: bigram counts, folded + materialized once
    bi_ds = docs.map_batches(bigram_partial, batch_format='pyarrow',
                             zero_copy_batch=True) \
        .groupby('bucket').map_groups(bigram_fold, batch_format='pyarrow') \
        .materialize()
    n_bi = float(bi_ds.sum('cnt') or 0)
    ref = ray.put((uni_map, n_uni, n_bi))

    def score(batch: pa.Table) -> pa.Table:
        uni, nu, nbi = _fetch_broadcast(ref)
        keep = batch.filter(pc.greater_equal(batch.column('cnt'),
                                             pa.scalar(min_support)))
        if keep.num_rows == 0:
            return pa.table({'bigram': pa.array([], pa.string()),
                             'n_occurrences': pa.array([], pa.int64()),
                             'pmi_raw': pa.array([], pa.float64())})
        bgs = keep.column('bg').to_pylist()
        cab = keep.column('cnt').to_numpy(zero_copy_only=False) \
                  .astype(np.float64)
        ca = np.fromiter((uni[s.split(' ', 1)[0]] for s in bgs),
                         dtype=np.float64, count=len(bgs))
        cb = np.fromiter((uni[s.split(' ', 1)[1]] for s in bgs),
                         dtype=np.float64, count=len(bgs))
        # same expression tree as the oracle: ((c·nu)·nu) / ((nbi·ca)·cb)
        pmi = np.log((cab * nu) * nu / ((nbi * ca) * cb))
        t = pa.table({
            'bigram': keep.column('bg').cast(pa.string()),
            'n_occurrences': keep.column('cnt').cast(pa.int64()),
            'pmi_raw': pa.array(pmi, pa.float64()),
        })
        return t.sort_by([('pmi_raw', 'descending'),
                          ('bigram', 'ascending')]).slice(0, topk)

    cand = bi_ds.map_batches(score, batch_format='pyarrow',
                             zero_copy_batch=True)
    parts = [t for t in ray.get(cand.to_arrow_refs()) if t.num_rows]
    base = pa.table({'bigram': pa.array([], pa.string()),
                     'n_occurrences': pa.array([], pa.int64()),
                     'pmi_raw': pa.array([], pa.float64())})
    tbl = pa.concat_tables([base] + parts, promote_options='none') \
            .sort_by([('pmi_raw', 'descending'), ('bigram', 'ascending')]) \
            .slice(0, topk)
    n = tbl.num_rows
    return pa.table({
        'bigram': tbl.column('bigram'),
        'n_occurrences': tbl.column('n_occurrences'),
        'pmi': pa.array(round_half_up(
            tbl.column('pmi_raw').to_numpy(zero_copy_only=False), 6),
            pa.float64()),
        'rank': pa.array(np.arange(1, n + 1), pa.int64()),
    })


def doc_scrub(sf_dir):
    """CORPUS SCRUBBING transform: strip the stopword list out of every
    document (the shape of PII/URL/boilerplate redaction — this corpus is
    synthetic space-separated tokens, so the stopword list stands in for
    the redaction pattern) and emit the cleaned text's md5, length and
    removal count.  One RE2 ``replace_substring_regex`` pass per batch —
    a pure map stage, no shuffle; the oracle runs the IDENTICAL pattern
    through DuckDB's RE2 ``regexp_replace(..., 'g')``, and the md5 pins
    the full scrubbed BYTES, not just summary stats."""
    pattern = STOPWORD_RE + ' ?'

    def scrub(batch: pa.Table) -> pa.Table:
        clean = pc.utf8_trim(pc.replace_substring_regex(
            batch.column('text'), pattern=pattern, replacement=''), ' ')
        md5s = [hashlib.md5(t.encode('utf-8')).hexdigest()
                for t in clean.to_pylist()]
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'clean_md5': pa.array(md5s, pa.string()),
            'clean_len': pc.cast(pc.utf8_length(clean), pa.int64()),
            'n_removed': _count_re(batch.column('text'), STOPWORD_RE),
        })

    return _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        scrub, batch_format='pyarrow', zero_copy_batch=True)


def doc_repetition(sf_dir):
    """Within-document REPETITION quality signal (the Gopher-rules
    "duplicate n-gram fraction" family): per doc, total words, distinct
    words, the most-frequent word's count, and the duplicate-word
    fraction ``1 - distinct/total``.  Heavily repetitive documents are a
    canonical pre-training filter target.

    Fully vectorized and shuffle-free (per-doc stats never leave their
    block): Arrow ``split_pattern`` → flatten → dictionary-encode, then
    one ``np.unique`` over the combined (doc, word-code) key gives
    per-(doc, word) counts; ``bincount`` / ``maximum.at`` fold those to
    per-doc distinct and mode counts.  Embarrassingly parallel at 100 TB.
    """
    def rep(batch: pa.Table) -> pa.Table:
        text = batch.column('text')
        words = pc.split_pattern(text, pattern=' ')
        n_words = pc.cast(pc.list_value_length(words), pa.int64()) \
                    .to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(words).combine_chunks()
        codes = flat.dictionary_encode()
        n_dict = max(1, len(codes.dictionary))
        word_code = codes.indices.to_numpy(zero_copy_only=False) \
                         .astype(np.int64)
        doc_idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                            n_words)
        ukey, cnts = np.unique(doc_idx * n_dict + word_code,
                               return_counts=True)
        doc_of = ukey // n_dict
        n_distinct = np.bincount(doc_of, minlength=batch.num_rows)
        top_cnt = np.zeros(batch.num_rows, np.int64)
        np.maximum.at(top_cnt, doc_of, cnts)
        # identical float expression to the oracle: 1.0 - distinct/total
        dup_frac = round_half_up(
            1.0 - n_distinct.astype(np.float64)
            / np.maximum(n_words, 1).astype(np.float64), 6)
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'n_words': pa.array(n_words, pa.int64()),
            'n_distinct': pa.array(n_distinct.astype(np.int64), pa.int64()),
            'top_cnt': pa.array(top_cnt, pa.int64()),
            'dup_frac': pa.array(dup_frac, pa.float64()),
        })

    return _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        rep, batch_format='pyarrow', zero_copy_batch=True)


CHUNK_TOKENS = 50
CHUNK_STRIDE = 25


def doc_chunks(sf_dir, chunk_tokens=CHUNK_TOKENS, stride=CHUNK_STRIDE):
    """CONTEXT-WINDOW CHUNKING — split every document into overlapping
    ``chunk_tokens``-token windows at ``stride`` spacing, the transform
    that turns a raw corpus into training sequences.  A pure flat-map
    (rows out > rows in), shuffle-free, and fully vectorized: one
    ``split_pattern`` per block, numpy arange/repeat arithmetic builds
    the per-chunk token index vector, one ``flat.take`` gathers every
    chunk's tokens, and Arrow ``binary_join`` re-joins them — no Python
    loop over docs or chunks."""
    def chunks(batch: pa.Table) -> pa.Table:
        words = pc.split_pattern(batch.column('text'), pattern=' ')
        n_tok = pc.cast(pc.list_value_length(words), pa.int64()) \
                  .to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(words).combine_chunks()
        doc_off = np.concatenate(([0], np.cumsum(n_tok)))[:-1]
        # chunk enumeration: starts 0, stride, ... while start < n_tok
        n_chunks = (np.maximum(n_tok, 1) - 1) // stride + 1
        doc_of = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                           n_chunks)
        chunk_idx = (np.arange(n_chunks.sum(), dtype=np.int64)
                     - np.repeat(np.concatenate(([0], np.cumsum(n_chunks)))[:-1],
                                 n_chunks))
        rel_start = chunk_idx * stride
        length = np.minimum(chunk_tokens, n_tok[doc_of] - rel_start)
        abs_start = doc_off[doc_of] + rel_start
        # gather every chunk's token indices in one flat vector
        seg_off = np.concatenate(([0], np.cumsum(length)))
        idx = (np.arange(seg_off[-1], dtype=np.int64)
               - np.repeat(seg_off[:-1], length)
               + np.repeat(abs_start, length))
        gathered = flat.take(pa.array(idx, pa.int64()))
        lists = pa.ListArray.from_arrays(pa.array(seg_off, pa.int32()),
                                         gathered)
        text = pc.binary_join(lists, ' ')
        return pa.table({
            'doc_id': batch.column('doc_id').take(
                pa.array(doc_of, pa.int64())),
            'chunk_idx': pa.array(chunk_idx, pa.int64()),
            'n_tokens': pa.array(length, pa.int64()),
            'chunk_text': text,
        })

    return _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        chunks, batch_format='pyarrow', zero_copy_batch=True)


def token_heavy_hitters(sf_dir, capacity=8, top_k=10, num_buckets=8):
    """Approximate global top-k tokens with DETERMINISTIC error bounds —
    the bounded-state heavy-hitters tier beside the exact
    :func:`token_frequencies` (whose per-bucket state is O(distinct
    tokens); this one's is O(capacity) per partition).

    The classic SpaceSaving/Misra–Gries summary is processing-ORDER
    dependent, so its estimates can't be hash-compared across runs.
    This operator instead uses the mergeable partition-top-c scheme
    (Cao & Wang's "summary + threshold" bound): partition docs by an
    md5 key into ``num_buckets`` EXPLICIT logical partitions (never
    Ray's physical blocks — partitioning must be data-derived for the
    result to be partitioning-invariant), keep each partition's exact
    top-``capacity`` tokens plus its threshold thr_b = count of the
    first DROPPED token, and bound any token's true global count by
    ``est_lower = sum(kept counts) <= true <= est_lower +
    sum(thr_b over partitions where the token was dropped) =
    est_upper``.  Every quantity is integer arithmetic over md5
    partitions — bit-reproducible, so the DuckDB oracle re-derives
    lower/upper/rank exactly while ALSO certifying the bound logic
    (``exact`` marks tokens whose bound collapsed).

    Scale shape: per block — explode + Arrow group_by count combiner
    (one row per distinct (bucket, token) per block); exchange — the
    bucketed combiner rows; per bucket — C++ sum fold + one O(V log V)
    sort of that bucket's vocabulary, emitting capacity+0/1 rows; the
    driver folds ≤ num_buckets·capacity candidate rows."""
    from .common import hash63_keys

    B, c = num_buckets, capacity

    def partial(batch: pa.Table) -> pa.Table:
        bucket = hash63_keys(batch.column('doc_id').to_numpy(
            zero_copy_only=False)) & (B - 1)
        t = _explode_tokens(batch, extra={'bucket': bucket})
        g = t.group_by(['bucket', 'token']).aggregate([('token', 'count')])
        return g.rename_columns(['bucket', 'token', 'cnt'])

    def fold(group: pa.Table) -> pa.Table:
        g = group.group_by('token').aggregate([('cnt', 'sum')])
        g = g.rename_columns(['token', 'cnt'])
        g = g.sort_by([('cnt', 'descending'), ('token', 'ascending')])
        thr = int(g.column('cnt')[c].as_py()) if g.num_rows > c else 0
        kept = g.slice(0, c)
        return pa.table({
            'bucket': pa.repeat(group.column('bucket')[0], kept.num_rows),
            'token': kept.column('token'),
            'cnt': kept.column('cnt').cast(pa.int64()),
            'thr': pa.array(np.full(kept.num_rows, thr, np.int64),
                            pa.int64()),
        })

    cand = _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        partial, batch_format='pyarrow', zero_copy_batch=True) \
        .groupby('bucket').map_groups(fold, batch_format='pyarrow')
    # ≤ num_buckets·capacity candidate rows: tiny, finish driver-side
    tbl = cand.take_batch(max(1, B * c), batch_format='pyarrow')
    bks = tbl.column('bucket').to_numpy(zero_copy_only=False)
    thrs = tbl.column('thr').to_numpy(zero_copy_only=False)
    # one thr per bucket (identical on every kept row of the bucket)
    _, first = np.unique(bks, return_index=True)
    total_thr = int(thrs[first].sum())
    g = tbl.group_by('token').aggregate([('cnt', 'sum'), ('thr', 'sum'),
                                         ('bucket', 'count')])
    lower = g.column('cnt_sum').to_numpy(zero_copy_only=False)
    upper = lower + total_thr - g.column('thr_sum').to_numpy(
        zero_copy_only=False)
    out = pa.table({
        'token': g.column('token'),
        'est_lower': pa.array(lower, pa.int64()),
        'est_upper': pa.array(upper, pa.int64()),
        'n_buckets': g.column('bucket_count').cast(pa.int64()),
        'exact': pa.array(lower == upper, pa.bool_()),
    }).sort_by([('est_lower', 'descending'), ('token', 'ascending')]) \
      .slice(0, top_k)
    n = out.num_rows
    return out.append_column('rank',
                             pa.array(np.arange(1, n + 1), pa.int64()))


def heavy_hitters_oracle_sql(capacity=8, top_k=10, num_buckets=8):
    """DuckDB re-derivation of :func:`token_heavy_hitters` — identical
    md5 doc-partitioning, per-partition top-c cut, threshold rule and
    bound arithmetic (all integers)."""
    return r"""
WITH t AS (
  SELECT (md5_number_lower(doc_id::VARCHAR) & 9223372036854775807) & {bm}
           AS bucket,
         unnest(regexp_extract_all(text, '\S+')) AS token
  FROM documents
), g AS (
  SELECT bucket, token, count(*)::BIGINT AS cnt FROM t GROUP BY bucket, token
), r AS (
  SELECT bucket, token, cnt,
         row_number() OVER (PARTITION BY bucket
                            ORDER BY cnt DESC, token ASC) AS rn
  FROM g
), thr AS (
  SELECT bucket,
         coalesce(max(CASE WHEN rn = {c1} THEN cnt END), 0) AS thr_b
  FROM r GROUP BY bucket
), tot AS (
  SELECT coalesce(sum(thr_b), 0) AS total_thr FROM thr
), cand AS (
  SELECT k.token,
         sum(k.cnt)::BIGINT AS est_lower,
         (sum(k.cnt) + (SELECT total_thr FROM tot)
          - sum(th.thr_b))::BIGINT AS est_upper,
         count(*)::BIGINT AS n_buckets
  FROM (SELECT * FROM r WHERE rn <= {c}) k
  JOIN thr th USING (bucket)
  GROUP BY k.token
)
SELECT token, est_lower, est_upper, n_buckets,
       (est_lower = est_upper) AS exact,
       row_number() OVER (ORDER BY est_lower DESC, token ASC)::BIGINT AS rank
FROM cand QUALIFY rank <= {k}
""".format(bm=num_buckets - 1, c=capacity, c1=capacity + 1, k=top_k)


def token_postings(sf_dir, cap=50, num_buckets=64):
    """Inverted-index build: one row per token with its document
    frequency and a posting list of the first ``cap`` doc_ids
    (ascending, comma-joined) — the search/retrieval-index primitive
    over a document corpus.

    Scale shape: per block — explode + Arrow group_by DISTINCT
    (doc_id, token) combiner (the exchange carries one row per distinct
    pair per block, never raw token occurrences); md5-bucketed token
    exchange; per bucket — one C++ distinct fold + one lexsort, df via
    vectorized run ranks, the posting string via ListArray offsets +
    ``binary_join`` (no Python per token).  The CAP bounds output-row
    state: full postings for hot tokens would concentrate O(corpus) in
    one row — the capped list plus the exact ``df`` count is the
    standard scale-safe index row."""
    from .relational import rank_in_sorted_key

    nb = num_buckets

    def partial(batch: pa.Table) -> pa.Table:
        t = _explode_tokens(batch)
        g = t.group_by(['token', 'doc_id']).aggregate([])
        # hash each DISTINCT token once (Python md5 per vocabulary
        # entry), then scatter to the pair rows — not md5 per pair
        uniq = pc.unique(g.column('token'))
        buckets = _string_bucket(uniq, nb)
        idx = pc.index_in(g.column('token'), value_set=uniq)
        return g.append_column('bucket', pc.take(buckets, idx))

    def fold(group: pa.Table) -> pa.Table:
        g = group.group_by(['token', 'doc_id']).aggregate([])
        g = g.sort_by([('token', 'ascending'), ('doc_id', 'ascending')])
        toks = g.column('token').to_numpy(zero_copy_only=False)
        rank = rank_in_sorted_key(toks)
        starts = np.flatnonzero(np.r_[True, toks[1:] != toks[:-1]])
        df = np.diff(np.r_[starts, len(toks)])
        keep = rank <= cap
        kept_per_tok = np.minimum(df, cap)
        offsets = np.r_[0, np.cumsum(kept_per_tok)]
        ids = pc.cast(g.column('doc_id').filter(pa.array(keep)),
                      pa.string())
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                         ids.combine_chunks())
        return pa.table({
            'token': g.column('token').take(pa.array(starts, pa.int64())),
            'df': pa.array(df, pa.int64()),
            'postings': pc.binary_join(lists, ','),
        })

    return _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        partial, batch_format='pyarrow', zero_copy_batch=True) \
        .groupby('bucket').map_groups(fold, batch_format='pyarrow')


def postings_oracle_sql(cap=50):
    """DuckDB re-derivation of :func:`token_postings`."""
    return r"""
WITH t AS (
  SELECT DISTINCT doc_id, unnest(regexp_extract_all(text, '\S+')) AS token
  FROM documents
), r AS (
  SELECT doc_id, token,
         row_number() OVER (PARTITION BY token ORDER BY doc_id) AS rn,
         count(*) OVER (PARTITION BY token) AS df
  FROM t
)
SELECT token, max(df)::BIGINT AS df,
       string_agg(CASE WHEN rn <= {cap} THEN doc_id::VARCHAR END,
                  ',' ORDER BY doc_id) AS postings
FROM r GROUP BY token
""".format(cap=cap)


# ---------------------------------------------------------------------------
# Token co-occurrence (market-basket over documents, a-priori pruned)


COOCCUR_MIN_SUPPORT = 25
COOCCUR_TOPK = 50


def token_cooccur_topk(sf_dir, min_support=COOCCUR_MIN_SUPPORT,
                       topk=COOCCUR_TOPK, num_buckets=64):
    """Top-``topk`` co-occurring token PAIRS: support = number of
    documents containing BOTH tokens, pairs kept when support ≥
    ``min_support`` — the association-mining pass a corpus audit runs to
    find boilerplate phrases and template co-occurrence.

    Scale shape (the a-priori trick bounds the quadratic step): the raw
    pair space is vocab², so pairs are generated ONLY among tokens that
    individually clear ``min_support`` — a pair can never out-support
    its rarer member.  Three bucketed exchanges, none carrying raw text:

    1. per-block per-doc DISTINCT (doc_id, token) rows (documents are one
       row per doc, so block-local distinct is global) → md5 token
       bucket → per-bucket df count; frequent tokens SEMI-JOIN the doc
       rows inside the same bucket (no broadcast of an unbounded
       frequent set);
    2. surviving rows re-bucket by doc_id → per-doc pair expansion
       (upper-triangle over the doc's sorted frequent tokens — bounded
       by frequent-tokens-per-doc², the documented contract);
    3. pairs bucket by token_a (a pair lives in exactly one bucket) →
       per-bucket exact support fold + LOCAL top-k → driver-side final
       sort of ≤ num_buckets·topk candidate rows."""
    nb = num_buckets

    def doc_tokens(batch: pa.Table) -> pa.Table:
        t = _explode_tokens(batch)
        g = t.group_by(['doc_id', 'token']).aggregate([])
        return g.append_column('bucket',
                               _string_bucket(g.column('token'), nb))

    def df_fold(group: pa.Table) -> pa.Table:
        df = group.group_by('token').aggregate([([], 'count_all')]) \
                  .rename_columns(['token', 'df'])
        freq = df.filter(pc.greater_equal(df.column('df'),
                                          min_support)).select(['token'])
        j = group.select(['doc_id', 'token']).join(freq, keys='token',
                                                   join_type='inner')
        ids = j.column('doc_id').to_numpy(zero_copy_only=False)
        return j.append_column('bucket',
                               pa.array(ids & (nb - 1), pa.int64()))

    def pairgen(group: pa.Table) -> pa.Table:
        ids = group.column('doc_id').to_numpy(zero_copy_only=False)
        tok = group.column('token').to_numpy(zero_copy_only=False)
        order = np.lexsort((tok, ids))
        ids, tok = ids[order], tok[order]
        starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
        lens = np.diff(np.r_[starts, len(ids)])
        # tokens sorted asc within each doc run, so upper-triangle
        # element pairs ARE the token_a < token_b pairs — one vectorized
        # expansion, no per-doc loop (common.run_pairs)
        from .common import run_pairs
        ia, ib = run_pairs(lens, upper=True)
        if not len(ia):
            z = pa.array([], pa.string())
            return pa.table({'token_a': z, 'token_b': z,
                             'bucket': pa.array([], pa.int64())})
        t = pa.table({'token_a': pa.array(tok[ia]),
                      'token_b': pa.array(tok[ib])})
        return t.append_column('bucket',
                               _string_bucket(t.column('token_a'), nb))

    def support_fold(group: pa.Table) -> pa.Table:
        g = group.group_by(['token_a', 'token_b']) \
                 .aggregate([([], 'count_all')]) \
                 .rename_columns(['token_a', 'token_b', 'support'])
        g = g.filter(pc.greater_equal(g.column('support'), min_support))
        g = g.sort_by([('support', 'descending'), ('token_a', 'ascending'),
                       ('token_b', 'ascending')]).slice(0, topk)
        return pa.table({'token_a': g.column('token_a'),
                         'token_b': g.column('token_b'),
                         'support': g.column('support').cast(pa.int64())})

    cand = _read_docs(sf_dir, ['doc_id', 'text']) \
        .map_batches(doc_tokens, batch_format='pyarrow',
                     zero_copy_batch=True) \
        .groupby('bucket').map_groups(df_fold, batch_format='pyarrow') \
        .groupby('bucket').map_groups(pairgen, batch_format='pyarrow') \
        .groupby('bucket').map_groups(support_fold, batch_format='pyarrow')
    tbl = cand.take_batch(max(1, nb * topk), batch_format='pyarrow')
    return tbl.sort_by([('support', 'descending'), ('token_a', 'ascending'),
                        ('token_b', 'ascending')]).slice(0, topk)


def cooccur_oracle_sql(min_support=COOCCUR_MIN_SUPPORT, topk=COOCCUR_TOPK):
    """DuckDB re-derivation of :func:`token_cooccur_topk` (self-join on
    per-doc distinct tokens; counts are integers — no parity risk)."""
    return r"""
WITH dt AS (SELECT DISTINCT doc_id,
                   unnest(regexp_extract_all(text, '\S+')) AS token
            FROM documents),
freq AS (SELECT token FROM dt GROUP BY token HAVING count(*) >= {ms}),
ft AS (SELECT dt.doc_id, dt.token FROM dt JOIN freq USING (token)),
pairs AS (SELECT a.token AS token_a, b.token AS token_b,
                 count(*)::BIGINT AS support
          FROM ft a JOIN ft b
            ON a.doc_id = b.doc_id AND a.token < b.token
          GROUP BY 1, 2 HAVING count(*) >= {ms})
SELECT token_a, token_b, support FROM pairs
ORDER BY support DESC, token_a, token_b LIMIT {k}
""".format(ms=min_support, k=topk)


# ---------------------------------------------------------------------------
# Per-source top tokens (grouped heavy hitters with share-of-source)


SOURCE_TOPK = 10


def _source_token_partial(nb):
    """Per-block (source, token) count combiner shared by
    source_token_topk and source_token_drift: explode tokens with their
    parent row's source via one np.repeat gather, fold per block, route
    by TOKEN md5 bucket — one row per distinct (source, token) per
    block leaves the map stage, never raw tokens."""
    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch.column('text'),
                                      pattern=r'\s+')
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        parent = np.repeat(np.arange(batch.num_rows), lens)
        t = pa.table({
            'source': batch.column('source').take(pa.array(parent)),
            'token': pc.list_flatten(toks),
        })
        t = t.filter(pc.not_equal(t.column('token'), ''))
        g = t.group_by(['source', 'token']).aggregate([([], 'count_all')]) \
             .rename_columns(['source', 'token', 'cnt'])
        return g.append_column('bucket',
                               _string_bucket(g.column('token'), nb))
    return partial


def source_token_topk(sf_dir, k=SOURCE_TOPK, num_buckets=64):
    """Per-``source`` top-``k`` tokens by occurrence count, with each
    token's share of the source's total token mass — the per-slice
    vocabulary audit (what dominates each crawl/source before mixing).

    Scale shape: per-block (source, token) count combiner (shuffle
    payload = one row per distinct (source, token) per block, never raw
    tokens) → md5 TOKEN bucket exchange → per-bucket exact count fold
    (all partials of a (source, token) share the token's bucket) → ONE
    re-exchange keyed by source folds each source's distinct-token rows:
    total mass + local top-k + share, vectorized.  The per-source row
    count is the source's vocabulary — the documented skew contract; for
    unbounded vocabularies the bounded-state tier is
    :func:`token_heavy_hitters` per source.

    ``pct`` = cnt / total, both int64 < 2^53 cast to float64: a single
    IEEE division, identical on both sides — no rounding needed."""
    nb = num_buckets
    partial = _source_token_partial(nb)

    def count_fold(group: pa.Table) -> pa.Table:
        g = group.group_by(['source', 'token']).aggregate([('cnt', 'sum')])
        return g.rename_columns(['source', 'token', 'cnt'])

    def source_fold(group: pa.Table) -> pa.Table:
        tok = group.column('token').to_numpy(zero_copy_only=False)
        cnt = group.column('cnt').to_numpy(zero_copy_only=False) \
                   .astype(np.int64)
        total = cnt.sum()
        order = np.lexsort((tok, -cnt))[:k]
        return pa.table({
            'source': group.column('source').take(pa.array(order)),
            'token': pa.array(tok[order]),
            'cnt': pa.array(cnt[order], pa.int64()),
            'pct': pa.array(cnt[order].astype(np.float64)
                            / np.float64(total), pa.float64()),
        })

    return _read_docs(sf_dir, ['source', 'text']) \
        .map_batches(partial, batch_format='pyarrow', zero_copy_batch=True) \
        .groupby('bucket').map_groups(count_fold, batch_format='pyarrow') \
        .groupby('source').map_groups(source_fold, batch_format='pyarrow')


def source_topk_oracle_sql(k=SOURCE_TOPK):
    """DuckDB re-derivation of :func:`source_token_topk`."""
    return r"""
WITH tok AS (SELECT source,
                    unnest(regexp_extract_all(text, '\S+')) AS token
             FROM documents),
cnt AS (SELECT source, token, count(*)::BIGINT AS cnt
        FROM tok GROUP BY 1, 2),
tot AS (SELECT source, sum(cnt)::BIGINT AS total FROM cnt GROUP BY source),
rk AS (SELECT c.source, c.token, c.cnt,
              CAST(c.cnt AS DOUBLE) / CAST(t.total AS DOUBLE) AS pct,
              row_number() OVER (PARTITION BY c.source
                                 ORDER BY c.cnt DESC, c.token) AS rn
       FROM cnt c JOIN tot t ON c.source = t.source)
SELECT source, token, cnt, pct FROM rk WHERE rn <= {k}
""".format(k=k)


# ---------------------------------------------------------------------------
# Classifier evaluation: language-ID confusion matrix


def _predict_lang(text_col):
    """THE shared language predictor (argmax of marker counts, first
    listed wins ties) — one home for lang_id and lang_confusion so the
    two can never disagree with each other or the CASE-ladder oracle."""
    scores = np.stack([
        _count_re(text_col, pat).to_numpy(zero_copy_only=False)
        for _, pat in LANG_MARKERS])               # (L, n)
    langs = np.array([l for l, _ in LANG_MARKERS])
    return langs[np.argmax(scores, axis=0)]        # first max wins


def lang_confusion(sf_dir, num_buckets=8):
    """CONFUSION MATRIX of the language classifier against the ``lang``
    label — the evaluation every learned/heuristic filter in a
    training-data pipeline needs before its predictions gate data
    (cf. doc_model_score for the inference stage itself).  One row per
    (lang, predicted) cell with the count.

    Scale shape: the per-block combiner folds each block to ≤ L² cells,
    so the exchange carries cells, never documents; one tiny groupby
    finishes.  Counts are integers — no parity risk."""
    def partial(batch: pa.Table) -> pa.Table:
        pred = _predict_lang(batch.column('text'))
        t = pa.table({'lang': batch.column('lang'),
                      'predicted': pa.array(pred, pa.string())})
        g = t.group_by(['lang', 'predicted']).aggregate([([], 'count_all')])
        return g.rename_columns(['lang', 'predicted', 'n'])

    def fold(group: pa.Table) -> pa.Table:
        g = group.group_by(['lang', 'predicted']).aggregate([('n', 'sum')])
        return pa.table({'lang': g.column('lang'),
                         'predicted': g.column('predicted'),
                         'n': g.column('n_sum').cast(pa.int64())})

    return _read_docs(sf_dir, ['lang', 'text']) \
        .map_batches(partial, batch_format='pyarrow', zero_copy_batch=True) \
        .groupby('lang').map_groups(fold, batch_format='pyarrow')


def lang_confusion_oracle_sql():
    """Same s/p CTEs as the lang_id oracle, aggregated to cells."""
    exprs = ',\n         '.join(
        "len(regexp_extract_all(text, '%s')) AS s_%s" % (p, c)
        for c, p in LANG_MARKERS)
    codes = [c for c, _ in LANG_MARKERS]
    ladder = []
    for i, c in enumerate(codes[:-1]):
        conds = ' AND '.join('s_%s >= s_%s' % (c, o) for o in codes[i + 1:])
        ladder.append("WHEN %s THEN '%s'" % (conds, c))
    case = 'CASE ' + ' '.join(ladder) + " ELSE '%s' END" % codes[-1]
    return """
WITH s AS (
  SELECT lang,
         {exprs}
  FROM documents
), p AS (
  SELECT lang, {case} AS predicted FROM s
)
SELECT lang, predicted, count(*)::BIGINT AS n FROM p GROUP BY 1, 2
""".format(exprs=exprs, case=case)


def lang_fertility(sf_dir):
    """TOKENIZER-FERTILITY audit per language: BPE-ish tokens per
    whitespace token — the multilingual-pipeline metric that tells you
    which languages pay a tokenization tax (fertility > ~1.4 means the
    corpus share in tokens diverges from its share in text, skewing the
    training mix).  Sums are pure int64 regex counts folded per lang
    (order-free), fertility is ONE division of int64-exact operands,
    half-up r6 — nothing to drift.

    100 TB shape: per-block combiner emits one row per (block, lang);
    the exchange never carries text."""
    def partial(batch: pa.Table) -> pa.Table:
        text = batch.column('text')
        t = pa.table({
            'lang': batch.column('lang'),
            'nt': _count_re(text, TOKEN_RE),
            'nb': _count_re(text, BPE_RE),
        })
        g = t.group_by('lang').aggregate(
            [('nt', 'sum'), ('nb', 'sum'), ([], 'count_all')])
        return g.rename_columns(['lang', 'sum_tokens', 'sum_bpe', 'n_docs'])

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by('lang').aggregate(
            [('sum_tokens', 'sum'), ('sum_bpe', 'sum'), ('n_docs', 'sum')])
        st = g.column('sum_tokens_sum').to_numpy(zero_copy_only=False) \
              .astype(np.int64)
        sb = g.column('sum_bpe_sum').to_numpy(zero_copy_only=False) \
              .astype(np.int64)
        fert = np.where(st > 0,
                        round_half_up(sb.astype(np.float64)
                                      / np.maximum(st, 1).astype(np.float64),
                                      6), 0.0)
        return pa.table({
            'lang': g.column('lang'),
            'n_docs': g.column('n_docs_sum').cast(pa.int64()),
            'sum_tokens': pa.array(st, pa.int64()),
            'sum_bpe': pa.array(sb, pa.int64()),
            'fertility': pa.array(fert, pa.float64()),
        })

    return _read_docs(sf_dir, ['lang', 'text']) \
        .map_batches(partial, batch_format='pyarrow',
                     zero_copy_batch=True) \
        .groupby('lang').map_groups(final, batch_format='pyarrow')


LANG_FERTILITY_SQL = r"""
WITH d AS (
  SELECT lang,
         len(regexp_extract_all(text, '\S+'))::BIGINT AS nt,
         len(regexp_extract_all(text,
             ' ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+'))::BIGINT AS nb
  FROM documents
)
SELECT lang, count(*)::BIGINT AS n_docs,
       sum(nt)::BIGINT AS sum_tokens, sum(nb)::BIGINT AS sum_bpe,
       CASE WHEN sum(nt) > 0
            THEN floor(CAST(sum(nb) AS DOUBLE) / CAST(sum(nt) AS DOUBLE)
                       * 1000000 + 0.5) / 1000000
            ELSE 0.0 END AS fertility
FROM d GROUP BY lang
"""


def doc_surprisal(sf_dir, num_buckets=64):
    """UNIGRAM-LM SURPRISAL scoring — the perplexity-filter shape a
    pretraining pipeline runs to drop gibberish and boilerplate: score
    every document by the average surprisal of its tokens under the
    corpus's own unigram distribution.  The surprisal unit is the
    INTEGER BIT-LENGTH proxy ``bits(tok) = bit_length(total // c_tok)``
    (⌊log2⌋+1 of the inverse frequency) — rare tokens score high,
    stopwords low — chosen so the WHOLE statistic is integer arithmetic:
    no log(), no float sum, and the oracle recomputes it exactly with
    ``length(bin(total // c))`` (DuckDB's bit-length equals Python's
    ``int.bit_length``).  avg_bits is one division of int64-exact operands,
    half-up r6.

    Scale shape: per-block (doc, token, multiplicity) combiner →
    md5-token-bucketed exchange; a token's ENTIRE corpus count resolves
    inside its bucket (dictionary-encode + bincount — no join), so the
    per-doc partials (doc_id, sum_bits, n_tok) leave the same fold and
    co-partition ONCE by doc bucket.  The corpus total and the
    zero-token doc rows come from one cheap fused auxiliary pass
    (vectorized regex count, nothing tokenized twice).  bit_length is
    np.frexp (exact below 2⁵¹) with an exact Python-int fallback above."""
    nb = num_buckets

    def occurrences(batch: pa.Table) -> pa.Table:
        split = pc.split_pattern_regex(batch.column('text'),
                                       pattern=r'\s+')
        flat = pc.list_flatten(split)
        lens = pc.list_value_length(split)
        # repeat doc_id per token slot, then drop the empty edge strings
        ids = np.repeat(batch.column('doc_id').to_numpy(
            zero_copy_only=False), lens.to_numpy(zero_copy_only=False))
        keep = pc.not_equal(flat, '')
        t = pa.table({'doc_id': pa.array(ids, pa.int64()), 'token': flat}) \
              .filter(keep)
        g = t.group_by(['doc_id', 'token']).aggregate([([], 'count_all')])
        g = g.rename_columns(['doc_id', 'token', 'm'])
        return g.append_column('bucket',
                               _string_bucket(g.column('token'), nb))

    def aux(batch: pa.Table) -> pa.Table:
        """One row per zero-token doc + one corpus-total row per block
        (doc_id = -1), so total and empties ride one cheap pass."""
        n_tok = _count_re(batch.column('text'), TOKEN_RE) \
            .to_numpy(zero_copy_only=False)
        ids = batch.column('doc_id').to_numpy(zero_copy_only=False)
        zid = ids[n_tok == 0]
        out_ids = np.r_[zid, np.int64(-1)]
        out_tot = np.r_[np.zeros(len(zid), np.int64),
                        np.int64(n_tok.sum())]
        return pa.table({'doc_id': pa.array(out_ids, pa.int64()),
                         'block_total': pa.array(out_tot, pa.int64())})

    aux_parts = [t for t in ray.get(
        _read_docs(sf_dir, ['doc_id', 'text'])
        .map_batches(aux, batch_format='pyarrow', zero_copy_batch=True)
        .to_arrow_refs()) if t.num_rows]
    aux_tbl = pa.concat_tables(aux_parts) if aux_parts else \
        pa.table({'doc_id': pa.array([], pa.int64()),
                  'block_total': pa.array([], pa.int64())})
    am = aux_tbl.column('doc_id').to_numpy(zero_copy_only=False)
    av = aux_tbl.column('block_total').to_numpy(zero_copy_only=False)
    total = int(av[am == -1].sum())
    zero_ids = np.sort(am[am != -1])

    _BITLEN_EXACT = np.int64(1) << 51

    def bucket_fold(group: pa.Table) -> pa.Table:
        toks = group.column('token')
        codes = pc.dictionary_encode(
            toks.combine_chunks() if toks.num_chunks != 1
            else toks.chunk(0)).indices.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        m = group.column('m').to_numpy(zero_copy_only=False) \
                 .astype(np.int64)
        c = np.bincount(codes, weights=m.astype(np.float64)) \
              .astype(np.int64)   # exact: counts < 2^53
        inv = total // c          # c >= 1 always (token occurs)
        bits = np.empty(len(inv), np.int64)
        small = inv < _BITLEN_EXACT
        bits[small] = np.frexp(inv[small].astype(np.float64))[1]
        for i in np.flatnonzero(~small):
            bits[i] = int(inv[i]).bit_length()
        per_row_bits = bits[codes] * m
        t = pa.table({'doc_id': group.column('doc_id'),
                      'sum_bits': pa.array(per_row_bits, pa.int64()),
                      'n_tok': pa.array(m, pa.int64())})
        g = t.group_by('doc_id').aggregate([('sum_bits', 'sum'),
                                            ('n_tok', 'sum')])
        g = g.rename_columns(['doc_id', 'sum_bits', 'n_tok'])
        ids = g.column('doc_id').to_numpy(zero_copy_only=False)
        return g.append_column('dbucket',
                               pa.array(hash63_keys(ids) & (nb - 1),
                                        pa.int64()))

    def doc_fold(group: pa.Table) -> pa.Table:
        g = group.group_by('doc_id').aggregate([('sum_bits', 'sum'),
                                                ('n_tok', 'sum')])
        sb = g.column('sum_bits_sum').to_numpy(zero_copy_only=False) \
              .astype(np.int64)
        nt = g.column('n_tok_sum').to_numpy(zero_copy_only=False) \
              .astype(np.int64)
        return pa.table({
            'doc_id': g.column('doc_id'),
            'n_tok': pa.array(nt, pa.int64()),
            'sum_bits': pa.array(sb, pa.int64()),
            'avg_bits': pa.array(
                round_half_up(sb.astype(np.float64)
                              / np.maximum(nt, 1).astype(np.float64), 6),
                pa.float64()),
        })

    scored = _read_docs(sf_dir, ['doc_id', 'text']) \
        .map_batches(occurrences, batch_format='pyarrow',
                     zero_copy_batch=True) \
        .groupby('bucket').map_groups(bucket_fold,
                                      batch_format='pyarrow') \
        .groupby('dbucket').map_groups(doc_fold, batch_format='pyarrow')
    if not len(zero_ids):
        return scored
    zeros = ray.data.from_arrow(pa.table({
        'doc_id': pa.array(zero_ids, pa.int64()),
        'n_tok': pa.array(np.zeros(len(zero_ids), np.int64)),
        'sum_bits': pa.array(np.zeros(len(zero_ids), np.int64)),
        'avg_bits': pa.array(np.zeros(len(zero_ids), np.float64)),
    }))
    return scored.union(zeros)


DOC_SURPRISAL_SQL = r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS tok
  FROM documents
), c AS (
  SELECT tok, count(*)::BIGINT AS c FROM toks GROUP BY tok
), t AS (SELECT count(*)::BIGINT AS total FROM toks),
s AS (
  SELECT toks.doc_id,
         sum(length(bin(t.total // c.c)))::BIGINT AS sum_bits,
         count(*)::BIGINT AS n_tok
  FROM toks JOIN c USING (tok) CROSS JOIN t
  GROUP BY toks.doc_id
)
SELECT d.doc_id, coalesce(s.n_tok, 0)::BIGINT AS n_tok,
       coalesce(s.sum_bits, 0)::BIGINT AS sum_bits,
       CASE WHEN coalesce(s.n_tok, 0) > 0
            THEN floor(CAST(s.sum_bits AS DOUBLE) / CAST(s.n_tok AS DOUBLE)
                       * 1000000 + 0.5) / 1000000
            ELSE 0.0 END AS avg_bits
FROM documents d LEFT JOIN s USING (doc_id)
"""


def vocab_coverage(sf_dir, ks=(1, 10, 100, 1000), num_buckets=64):
    """VOCABULARY COVERAGE CURVE: for each k in ``ks``, the fraction of
    all corpus token occurrences covered by the k most frequent tokens
    (count desc, token asc tie-break) — the curve a tokenizer designer
    reads to size a vocabulary (coverage flattening early means a small
    vocab suffices; a long flat tail means byte-fallback pressure).
    Output: (k, covered_tokens, total_tokens, coverage r6).

    Scale shape: token_frequencies' combiner (one row per distinct token
    per block) → md5-bucketed exchange → per-bucket C++ sum fold keeps
    only the bucket-local top max(ks) rows as candidates PLUS one
    bucket-total row for the denominator (a token lives in exactly one
    bucket, so the global top-k is a subset of the union of bucket
    top-ks and the totals sum exactly); the driver folds
    ≤ num_buckets·(max_k+1) candidate rows.  Integer-exact until the one
    coverage division (half-up r6)."""
    nb = num_buckets
    max_k = max(ks)
    partial = _token_count_partial(nb)

    def fold(group: pa.Table) -> pa.Table:
        g = group.group_by('token').aggregate([('cnt', 'sum')])
        g = g.rename_columns(['token', 'n'])
        total = pc.sum(g.column('n')).as_py() or 0
        top = g.sort_by([('n', 'descending'),
                         ('token', 'ascending')]).slice(0, max_k)
        return pa.table({
            'token': pa.concat_arrays(
                [top.column('token').combine_chunks(),
                 pa.array([None], pa.string())]),
            'n': pa.concat_arrays(
                [top.column('n').cast(pa.int64()).combine_chunks(),
                 pa.array([total], pa.int64())]),
        })

    cand = _read_docs(sf_dir, ['text']).map_batches(
        partial, batch_format='pyarrow', zero_copy_batch=True) \
        .groupby('bucket').map_groups(fold, batch_format='pyarrow')
    # ≤ num_buckets·(max_k+1) candidate rows: tiny, finish driver-side
    tbl = cand.take_batch(max(1, nb * (max_k + 1)),
                          batch_format='pyarrow')
    is_tot = pc.is_null(tbl.column('token'))
    total = int(pc.sum(tbl.filter(is_tot).column('n')).as_py() or 0)
    top = tbl.filter(pc.invert(is_tot)) \
             .sort_by([('n', 'descending'), ('token', 'ascending')])
    counts = top.column('n').to_numpy(zero_copy_only=False)
    csum = np.cumsum(counts) if len(counts) else np.zeros(0, np.int64)
    cov = [int(csum[min(kk, len(csum)) - 1]) if len(csum) and kk >= 1
           else 0 for kk in ks]
    share = [float(round_half_up(np.float64(c) / np.float64(total), 6))
             if total > 0 else 0.0 for c in cov]
    return pa.table({
        'k': pa.array(list(ks), pa.int64()),
        'covered_tokens': pa.array(cov, pa.int64()),
        'total_tokens': pa.array([total] * len(ks), pa.int64()),
        'coverage': pa.array(share, pa.float64()),
    })


def vocab_coverage_oracle_sql(ks=(1, 10, 100, 1000)):
    values = ', '.join('(%d)' % kk for kk in ks)
    return r"""
WITH tok AS (
  SELECT unnest(regexp_extract_all(text, '\S+')) AS token FROM documents
), tf AS (
  SELECT token, count(*)::BIGINT AS n FROM tok GROUP BY token
), r AS (
  SELECT token, n, row_number() OVER (ORDER BY n DESC, token) AS rn FROM tf
), tot AS (
  SELECT sum(n)::BIGINT AS s FROM tf
), ks(k) AS (VALUES {values})
SELECT ks.k::BIGINT AS k,
       coalesce(sum(r.n) FILTER (r.rn <= ks.k), 0)::BIGINT
         AS covered_tokens,
       tot.s AS total_tokens,
       floor(coalesce(sum(r.n) FILTER (r.rn <= ks.k), 0)::DOUBLE
             / tot.s::DOUBLE * 1000000 + 0.5) / 1000000 AS coverage
FROM ks CROSS JOIN tot CROSS JOIN r
GROUP BY ks.k, tot.s
""".format(values=values)


def source_token_drift(sf_dir, num_buckets=64, max_fold_rows=1 << 20):
    """DOMAIN-MIX drift audit: per ``source``, the L1 distance between
    the source's token distribution and the CORPUS-WIDE token
    distribution — the number a mixture owner reads to see which crawl
    slice is lexically farthest from the blend (a source near 0 is
    redundant with the mix; near 2 is disjoint vocabulary).  Output:
    (source, n_tokens, l1_drift r6).

    EXACT RATIONAL arithmetic (the events_type_drift identity over an
    UNBOUNDED key space): with source counts c_t (total N_s) and corpus
    counts g_t (total M), L1 = Σ_t |c_t/N_s − g_t/M| =
    (Σ_{t: c_t>0} (|c_t·M − g_t·N_s| − g_t·N_s) + N_s·M) / (N_s·M) —
    the closed-form fold of the tokens a source LACKS means no side
    ever materializes the full vocabulary per source.  Integer
    numerator (Python-int exact at any scale, shipped as decimal128),
    ONE division, half-up r6.

    Shape: the shared (source, token) combiner → token-bucketed
    exchange, MATERIALIZED once and read twice (per-source totals =
    a tiny sum over combiner rows; the drift fold resolves each
    token's corpus count g_t INSIDE its bucket — a token lives in one
    bucket, so per-(bucket, source) partials sum exactly); driver folds
    ≤ buckets × sources partial rows, LOUDLY guarded by
    ``max_fold_rows`` (the max_rbuckets discipline — take_batch would
    silently truncate past its cap and compute wrong totals)."""
    import ray as _ray

    from .common import concat_tables_or_empty
    nb = num_buckets

    def _gather(ds, schema, label):
        tbl = concat_tables_or_empty(_ray.get(ds.to_arrow_refs()), schema)
        if tbl.num_rows > max_fold_rows:
            raise RuntimeError(
                'source_token_drift: %s fold has %d rows, over '
                'max_fold_rows=%d — raise the cap or add a groupby '
                'pre-fold stage (rows scale with blocks x sources)'
                % (label, tbl.num_rows, max_fold_rows))
        return tbl

    combined = _read_docs(sf_dir, ['source', 'text']) \
        .map_batches(_source_token_partial(nb), batch_format='pyarrow',
                     zero_copy_batch=True).materialize()

    totals = _gather(
        combined.map_batches(
            lambda t: t.group_by('source').aggregate([('cnt', 'sum')])
                       .rename_columns(['source', 'n']),
            batch_format='pyarrow', zero_copy_batch=True),
        pa.schema([('source', pa.string()), ('n', pa.int64())]),
        'per-source totals') \
        .group_by('source').aggregate([('n', 'sum')])
    ns = {s: int(v) for s, v in zip(totals.column('source').to_pylist(),
                                    totals.column('n_sum').to_pylist())}
    M = sum(ns.values())

    def fold(group: pa.Table) -> pa.Table:
        g = group.group_by(['source', 'token']).aggregate([('cnt', 'sum')])
        g = g.rename_columns(['source', 'token', 'c'])
        gt = g.group_by('token').aggregate([('c', 'sum')]) \
              .rename_columns(['token', 'g'])
        j = g.join(gt, keys='token', join_type='inner')
        # exact Python-int fold (c·M and g·N_s exceed int64 past ~3e9
        # corpus tokens; the combiner bounded rows to vocabulary size,
        # so this per-bucket loop is over token TYPES, not occurrences)
        acc = {}
        for s, c, gv in zip(j.column('source').to_pylist(),
                            j.column('c').to_pylist(),
                            j.column('g').to_pylist()):
            n_s = ns[s]
            acc[s] = acc.get(s, 0) + abs(c * M - gv * n_s) - gv * n_s
        srcs = sorted(acc)
        return pa.table({
            'source': pa.array(srcs, pa.string()),
            'partial': pa.array([acc[s] for s in srcs],
                                pa.decimal128(38, 0)),
        })

    parts = _gather(
        combined.groupby('bucket').map_groups(fold,
                                              batch_format='pyarrow'),
        pa.schema([('source', pa.string()),
                   ('partial', pa.decimal128(38, 0))]),
        'drift partials')
    acc = {}
    for s, p in zip(parts.column('source').to_pylist(),
                    parts.column('partial').to_pylist()):
        acc[s] = acc.get(s, 0) + int(p)
    from .common import round_half_up
    srcs = sorted(ns)
    out_n, out_l1 = [], []
    for s in srcs:
        den = ns[s] * M
        num = acc.get(s, 0) + den
        out_n.append(ns[s])
        out_l1.append(float(round_half_up(
            np.float64(num) / np.float64(den), 6)))
    return pa.table({
        'source': pa.array(srcs, pa.string()),
        'n_tokens': pa.array(out_n, pa.int64()),
        'l1_drift': pa.array(out_l1, pa.float64()),
    })


SOURCE_TOKEN_DRIFT_SQL = r"""
WITH tok AS (
  SELECT source, unnest(regexp_extract_all(text, '\S+')) AS token
  FROM documents
), st AS (
  SELECT source, token, count(*)::HUGEINT AS c FROM tok GROUP BY 1, 2
), gt AS (
  SELECT token, sum(c)::HUGEINT AS g FROM st GROUP BY token
), ns AS (
  SELECT source, sum(c)::HUGEINT AS n FROM st GROUP BY source
), m AS (
  SELECT sum(c)::HUGEINT AS m FROM st
), p AS (
  SELECT st.source,
         sum(abs(st.c * m.m - gt.g * ns.n) - gt.g * ns.n)::HUGEINT AS part
  FROM st JOIN gt USING (token) JOIN ns USING (source) CROSS JOIN m
  GROUP BY st.source
)
SELECT p.source, ns.n::BIGINT AS n_tokens,
       floor((p.part + ns.n * m.m)::DOUBLE / (ns.n * m.m)::DOUBLE
             * 1000000 + 0.5) / 1000000 AS l1_drift
FROM p JOIN ns USING (source) CROSS JOIN m
"""


def doc_ttr(sf_dir):
    """LEXICAL DIVERSITY (type/token ratio) per document — the
    complement to doc_repetition in a quality stack: boilerplate and
    generated spam sit at the TTR extremes.  Output: (doc_id, n_tokens,
    n_types, ttr r6); ttr = 0 for token-less docs.

    Embarrassingly parallel — a document is one row, so its distinct
    count resolves INSIDE the block: explode (doc_id, token) with one
    np.repeat gather, one in-block Arrow distinct fold, one join back
    to the per-doc token count.  No shuffle at all."""
    def ttr(batch: pa.Table) -> pa.Table:
        text = batch.column('text')
        n_tokens = _count_re(text, TOKEN_RE)
        toks = pc.split_pattern_regex(text, pattern=r'\s+')
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        ids = batch.column('doc_id').to_numpy(zero_copy_only=False)
        t = pa.table({
            'doc_id': pa.array(np.repeat(ids, lens), pa.int64()),
            'token': pc.list_flatten(toks),
        })
        t = t.filter(pc.not_equal(t.column('token'), ''))
        types = t.group_by(['doc_id', 'token']).aggregate([]) \
                 .group_by('doc_id').aggregate([([], 'count_all')]) \
                 .rename_columns(['doc_id', 'n_types'])
        base = pa.table({'doc_id': batch.column('doc_id'),
                         'n_tokens': n_tokens})
        j = base.join(types, keys='doc_id', join_type='left outer')
        nt = j.column('n_tokens').to_numpy(zero_copy_only=False) \
              .astype(np.int64)
        ty = j.column('n_types').fill_null(0) \
              .to_numpy(zero_copy_only=False).astype(np.int64)
        ratio = np.where(nt > 0, round_half_up(
            ty.astype(np.float64) / np.maximum(nt, 1).astype(np.float64),
            6), 0.0)
        return pa.table({
            'doc_id': j.column('doc_id'),
            'n_tokens': pa.array(nt, pa.int64()),
            'n_types': pa.array(ty, pa.int64()),
            'ttr': pa.array(ratio, pa.float64()),
        })

    return _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        ttr, batch_format='pyarrow', zero_copy_batch=True)


DOC_TTR_SQL = r"""
WITH tk AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS t FROM documents
)
SELECT doc_id, len(t)::BIGINT AS n_tokens,
       len(list_distinct(t))::BIGINT AS n_types,
       CASE WHEN len(t) > 0
            THEN floor(len(list_distinct(t))::DOUBLE / len(t)::DOUBLE
                       * 1000000 + 0.5) / 1000000
            ELSE 0.0 END AS ttr
FROM tk
"""


def _weighted_median(values, counts):
    """Exact interpolated median of a run-length-encoded multiset:
    ``values`` sorted ascending, positive ``counts``; even totals average
    the two middle elements (DuckDB ``median`` semantics).  All-integer
    cumsum arithmetic; the only float is the final half-sum, exact for
    integer/half-integer inputs < 2^52."""
    values = np.asarray(values, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    cum = np.cumsum(counts)
    lo = float(values[np.searchsorted(cum, (n - 1) // 2, side='right')])
    hi = float(values[np.searchsorted(cum, n // 2, side='right')])
    return (lo + hi) / 2.0


def doc_length_outliers(sf_dir, z=2.5, num_buckets=64):
    """Per-source robust length outliers: docs with ``|n_chars − median| >
    z·MAD`` of their source (median absolute deviation, interpolated
    DuckDB semantics on both sides).

    Exact at 100 TB without sorting raw rows: pass 1 compresses each block
    to a per-(source, n_chars) HISTOGRAM combiner (n_chars is a bounded
    integer domain, so combiner cardinality is sources × distinct lengths,
    never rows), one groupby('source') folds histograms, and the median
    and the MAD (a second weighted median over |x − med| with the SAME
    counts) come exactly off the histogram — integer arithmetic, no
    quantile approximation.  The per-source (med, mad) table is O(sources);
    pass 2 re-scans documents and filters map-side against the broadcast
    map (``ray.put`` once, fetched once per actor).
    """
    import ray

    from .common import BroadcastLookup, pool

    def hist_partial(batch: pa.Table) -> pa.Table:
        g = pa.table({'source': batch.column('source'),
                      'n_chars': batch.column('n_chars')}) \
            .group_by(['source', 'n_chars']).aggregate([([], 'count_all')])
        return g.rename_columns(['source', 'n_chars', 'cnt'])

    def fold_stats(group: pa.Table) -> pa.Table:
        g = group.group_by(['source', 'n_chars']).aggregate([('cnt', 'sum')])
        g = g.sort_by([('n_chars', 'ascending')])
        vals = g.column('n_chars').to_numpy(zero_copy_only=False)
        cnts = g.column('cnt_sum').to_numpy(zero_copy_only=False)
        med = _weighted_median(vals, cnts)
        dev = np.abs(vals.astype(np.float64) - med)
        order = np.argsort(dev, kind='stable')
        mad = _weighted_median(dev[order], cnts[order])
        return pa.table({
            'source': group.column('source').slice(0, 1),
            'med': pa.array([med], pa.float64()),
            'mad': pa.array([mad], pa.float64()),
        })

    stats = read_table(sf_dir, 'documents', columns=['source', 'n_chars']) \
        .map_batches(hist_partial, batch_format='pyarrow',
                     zero_copy_batch=True) \
        .groupby('source').map_groups(fold_stats, batch_format='pyarrow') \
        .take_all()   # O(distinct sources) rows by construction
    lut = {r['source']: (r['med'], r['mad']) for r in stats}
    ref = ray.put(lut)

    class Filter(BroadcastLookup):
        def __call__(self, batch: pa.Table) -> pa.Table:
            lut = self.state
            src = batch.column('source').to_pylist()
            med = np.array([lut[s][0] for s in src], np.float64)
            mad = np.array([lut[s][1] for s in src], np.float64)
            x = batch.column('n_chars').to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            keep = np.abs(x - med) > z * mad
            return batch.filter(pa.array(keep))

    return read_table(sf_dir, 'documents',
                      columns=['doc_id', 'source', 'n_chars']) \
        .map_batches(Filter, fn_constructor_args=(ref,),
                     batch_format='pyarrow', zero_copy_batch=True,
                     concurrency=pool())


DOC_LENGTH_OUTLIERS_SQL = """
WITH s AS (
  SELECT source, median(n_chars) AS med, mad(n_chars) AS mad
  FROM documents GROUP BY source
)
SELECT d.doc_id, d.source, d.n_chars
FROM documents d JOIN s USING (source)
WHERE abs(d.n_chars - s.med) > 2.5 * s.mad
"""
