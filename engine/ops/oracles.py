"""DuckDB oracle SQL builders for queries whose semantics are
SQL-expressible but need generated constants (hash constants, the seeded
LSH hyperplanes, trained IVF centroids).

Rules shared with the engine side:
- rounding is always the half-up formula ``floor(x*10^d + 0.5)/10^d``;
- k-gram hashes are ``md5_number_lower`` & 63-bit mask
  (= :func:`engine.ops.textstats._gram_hash`);
- LSH planes come from the same ``np.random.RandomState(777)`` stream the
  Ray stage uses, inlined as DOUBLE[] literals (%.17g round-trips float64
  exactly);
- IVF centroids are data-dependent: they are trained at oracle-build time
  on the SAME bounded head sample (first ``max_train`` rows in file order)
  the Ray pipeline trains on, from the sf dir the driver compares at
  (``$GRAFT_ORACLE_SF_DIR``, default /root/testdata/sf0.01).
"""

import os

import numpy as np

def _oracle_sf_dir():
    # read at CALL time so tools can point the oracle at another sf dir
    return os.environ.get('GRAFT_ORACLE_SF_DIR', '/root/testdata/sf0.01')


def _winnow_d_cte(k, w):
    """The shared winnow-set CTE chain (pos → g → wm → sel → d): one
    home for the winnowing contract both winnow_oracle_sql and
    shared_span_oracle_sql certify (k-gram md5 hash, window min, the
    n <= w single-min corner).  ``d`` = DISTINCT (doc_id, wmin)."""
    return r"""
WITH pos AS (
  SELECT doc_id, text, length(text) - {km1} AS n,
         unnest(generate_series(1, greatest(length(text) - {km1}, 0))) AS i
  FROM documents
), g AS (
  SELECT doc_id, i, n,
         (md5_number_lower(substr(text, i, {k})) & 9223372036854775807)::BIGINT AS h
  FROM pos
), wm AS (
  SELECT doc_id, i, n,
         min(h) OVER (PARTITION BY doc_id ORDER BY i
                      ROWS BETWEEN CURRENT ROW AND {wm1} FOLLOWING) AS wmin
  FROM g
), sel AS (
  SELECT doc_id, wmin FROM wm WHERE n > {w} AND i <= n - {wm1}
  UNION ALL
  SELECT doc_id, min(h) AS wmin FROM g WHERE n <= {w} GROUP BY doc_id
), d AS (
  SELECT DISTINCT doc_id, wmin FROM sel
)""".format(k=k, km1=k - 1, w=w, wm1=w - 1)


def winnow_oracle_sql(k=5, w=4):
    """Winnowing fingerprint summary (textstats.fingerprint_winnow):
    code-point k-grams → 63-bit md5 hash → windowed min → distinct set."""
    return _winnow_d_cte(k, w) + """, agg AS (
  SELECT doc_id, count(*)::BIGINT AS n_fingerprints,
         min(wmin) AS min_fp, max(wmin) AS max_fp
  FROM d GROUP BY doc_id
)
SELECT doc_id, coalesce(n_fingerprints, 0)::BIGINT AS n_fingerprints,
       coalesce(min_fp, 0)::BIGINT AS min_fp,
       coalesce(max_fp, 0)::BIGINT AS max_fp
FROM documents LEFT JOIN agg USING (doc_id)
"""


def shared_span_oracle_sql(k=20, w=8, min_shared=2):
    """Cross-doc shared winnow fingerprints (dedup.shared_span_pairs):
    the SAME winnow-set CTE as winnow_oracle_sql at (k, w), self-joined
    on the fingerprint with canonical doc_id_a < doc_id_b order."""
    return _winnow_d_cte(k, w) + """
SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
       count(*)::BIGINT AS n_shared
FROM d a JOIN d b ON b.wmin = a.wmin AND b.doc_id > a.doc_id
GROUP BY 1, 2
HAVING count(*) >= {m}
""".format(m=min_shared)


def _dlist(vec):
    return '[%s]::DOUBLE[]' % ', '.join('%.17g' % v for v in vec)


def _bucket_expr(col, plane_lists):
    terms = ['(CASE WHEN list_dot_product(%s, %s) > 0 THEN %d ELSE 0 END)'
             % (col, pl, 1 << p) for p, pl in enumerate(plane_lists)]
    return '(' + ' + '.join(terms) + ')::BIGINT'


def lsh_oracle_sql(dim, n_queries=16, k=5):
    """Full SQL re-derivation of ann_topk_lsh: the seeded hyperplanes are
    data-independent, so they inline as literals; bucket bits are sign
    tests of raw dot products (sign is normalization-invariant), probes =
    own bucket + all 1-bit flips (xor in {0,1,2,4,8}), global top-k by
    (cosine desc, nid asc)."""
    from .similarity import _lsh_planes, _LSH_PLANES
    planes = _lsh_planes(dim)                        # (dim, P)
    plane_lists = [_dlist(planes[:, p]) for p in range(_LSH_PLANES)]
    xor_ok = ', '.join(str(v) for v in
                       [0] + [1 << p for p in range(_LSH_PLANES)])
    return """
WITH q AS (
  SELECT vec_id AS qid, embedding::DOUBLE[] AS qe FROM embeddings
  WHERE vec_id < {nq}
), qb AS (
  SELECT qid, qe, {qbucket} AS b FROM q
), eb AS (
  SELECT vec_id AS nid, embedding::DOUBLE[] AS ee, {ebucket} AS b
  FROM embeddings
), s AS (
  SELECT qb.qid, eb.nid, list_cosine_similarity(qb.qe, eb.ee) AS sc
  FROM qb JOIN eb ON xor(qb.b, eb.b) IN ({xor_ok}) AND eb.nid <> qb.qid
), r AS (
  SELECT qid, nid, sc,
         row_number() OVER (PARTITION BY qid ORDER BY sc DESC, nid ASC)::BIGINT AS rank
  FROM s
)
SELECT qid AS query_id, nid AS neighbor_id,
       floor(sc * 10000 + 0.5) / 10000 AS score, rank
FROM r WHERE rank <= {k}
""".format(nq=n_queries, k=k, xor_ok=xor_ok,
           qbucket=_bucket_expr('qe', plane_lists),
           ebucket=_bucket_expr('ee', plane_lists))


def _sample_matrix(path, max_train, raw=False):
    """The ``max_train`` rows with the smallest md5(vec_id) sample key, in
    (skey, vec_id) order — the pq twin of similarity._train_matrix's
    distributed hash-order sample (same key function, same tie-break, so
    the training matrix is row-for-row identical).  ``raw=True`` skips
    normalization (the PQ tier trains on raw vectors)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from .similarity import _batch_matrix, _raw_matrix, _sample_keys
    tbl = pq.read_table(path, columns=['vec_id', 'embedding'])
    keys = _sample_keys(tbl.column('vec_id').to_numpy(zero_copy_only=False))
    tbl = tbl.append_column('skey', pa.array(keys, pa.int64()))
    tbl = tbl.sort_by([('skey', 'ascending'),
                       ('vec_id', 'ascending')]).slice(0, max_train)
    return _raw_matrix(tbl) if raw else _batch_matrix(tbl)


def ivf_oracle_sql(sf_dir=None, n_queries=16, k=5, nlist=16, nprobe=4,
                   max_train=65536):
    """Full SQL re-derivation of ann_topk_ivf.  The coarse quantizer is
    data-dependent, so the oracle trains the SAME deterministic k-means on
    the SAME bounded md5-keyed sample at build time and inlines the
    centroids as literals — valid for the sf dir the driver compares at."""
    from .similarity import _kmeans
    sf_dir = sf_dir or _oracle_sf_dir()
    path = os.path.join(sf_dir, 'embeddings.parquet')
    _, train = _sample_matrix(path, max_train)
    cent = _kmeans(train, nlist)
    cent_rows = ',\n    '.join('(%d, %s)' % (ci, _dlist(cent[ci]))
                               for ci in range(nlist))
    return """
WITH cent(ci, cv) AS (VALUES
    {cent_rows}
), q AS (
  SELECT vec_id AS qid, embedding::DOUBLE[] AS qe FROM embeddings
  WHERE vec_id < {nq}
), e AS (
  SELECT vec_id AS nid, embedding::DOUBLE[] AS ee FROM embeddings
), easn AS (
  SELECT nid, ee, ci AS cell FROM (
    SELECT e.nid, e.ee, cent.ci,
           row_number() OVER (PARTITION BY e.nid
             ORDER BY list_cosine_similarity(e.ee, cent.cv) DESC, cent.ci ASC) AS rn
    FROM e, cent) WHERE rn = 1
), qpr AS (
  SELECT qid, qe, ci FROM (
    SELECT q.qid, q.qe, cent.ci,
           row_number() OVER (PARTITION BY q.qid
             ORDER BY list_cosine_similarity(q.qe, cent.cv) DESC, cent.ci ASC) AS rn
    FROM q, cent) WHERE rn <= {nprobe}
), s AS (
  SELECT qpr.qid, easn.nid, list_cosine_similarity(qpr.qe, easn.ee) AS sc
  FROM qpr JOIN easn ON easn.cell = qpr.ci AND easn.nid <> qpr.qid
), r AS (
  SELECT qid, nid, sc,
         row_number() OVER (PARTITION BY qid ORDER BY sc DESC, nid ASC)::BIGINT AS rank
  FROM s
)
SELECT qid AS query_id, nid AS neighbor_id,
       floor(sc * 10000 + 0.5) / 10000 AS score, rank
FROM r WHERE rank <= {k}
""".format(cent_rows=cent_rows, nq=n_queries, k=k, nprobe=nprobe)


def minhash_oracle_sql(threshold=0.8, k=3):
    """Full SQL re-derivation of minhash_near_dup: 32-bit md5 shingle
    hashes, the SAME 128 seeded permutations inlined as VALUES rows,
    (a*h+b) % (2^61-1) in HUGEINT (exact — the engine's uint64 math never
    overflows either), per-(doc, perm) minima, banding by equality of the
    4-minimum list (the engine keys buckets by crc32 of those 4 minima —
    equality of the lists IS equality of the keys, modulo crc collisions
    the engine itself would also suffer), then the exact-Jaccard verify
    with the shared integer |∩|/|∪| math and half-up rounding."""
    from .dedup import _perm_params, NUM_PERM, ROWS_PER_BAND, _MERSENNE
    a, b = _perm_params()
    perm_rows = ',\n    '.join('(%d, %d, %d)' % (p, int(a[p]), int(b[p]))
                               for p in range(NUM_PERM))
    return r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS tk FROM documents
), g AS (
  SELECT doc_id,
         list_distinct(list_transform(generate_series(1, greatest(len(tk) - {km1}, 0)),
                                      i -> array_to_string(tk[i:i+{km1}], ' '))) AS s
  FROM toks
), sh AS (
  SELECT doc_id, unnest(s) AS gram FROM g WHERE len(s) > 0
), hs AS (
  SELECT doc_id, (md5_number_lower(gram) & 4294967295)::HUGEINT AS h FROM sh
), perms(p, a, b) AS (VALUES
    {perm_rows}
), pm AS (
  SELECT doc_id, p, min((a::HUGEINT * h + b) % {mersenne})::BIGINT AS m
  FROM hs CROSS JOIN perms GROUP BY doc_id, p
), band AS (
  SELECT doc_id, p // {rpb} AS bi, list(m ORDER BY p) AS mins
  FROM pm GROUP BY doc_id, p // {rpb}
), cand AS (
  SELECT DISTINCT a.doc_id AS ida, b.doc_id AS idb
  FROM band a JOIN band b
    ON a.bi = b.bi AND a.mins = b.mins AND a.doc_id < b.doc_id
), j AS (
  SELECT c.ida, c.idb,
         len(list_intersect(ga.s, gb.s)) AS inter,
         len(list_distinct(list_concat(ga.s, gb.s))) AS uni
  FROM cand c JOIN g ga ON ga.doc_id = c.ida JOIN g gb ON gb.doc_id = c.idb
)
SELECT ida AS doc_id_a, idb AS doc_id_b,
       floor(inter::DOUBLE / uni * 1000000 + 0.5) / 1000000 AS jac
FROM j WHERE uni > 0 AND inter::DOUBLE / uni >= {threshold}
""".format(km1=k - 1, perm_rows=perm_rows, mersenne=_MERSENNE,
           rpb=ROWS_PER_BAND, threshold=repr(threshold))


def simhash_oracle_sql(max_hamming=3):
    """Full SQL re-derivation of simhash_near_dup: 64-bit md5 token hashes
    (duplicates kept, as in the engine), ±1 bit votes, sign → 64-bit
    signature (UBIGINT; bit 63 via a literal — DuckDB's << overflows into
    BIGINT), 4×16-bit chunk blocking, Hamming ≤ max_hamming verify.
    Docs with zero tokens carry signature 0, exactly like the engine."""
    return r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS tok FROM documents
), th AS (
  SELECT doc_id, md5_number_lower(tok) AS h FROM toks
), bits AS (
  SELECT doc_id, b,
         sum(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS v
  FROM th CROSS JOIN generate_series(0, 63) t(b)
  GROUP BY doc_id, b
), sig AS (
  SELECT doc_id,
         sum(CASE WHEN v > 0 THEN
               CASE WHEN b = 63 THEN 9223372036854775808::UBIGINT
                    ELSE 1::UBIGINT << b END
             ELSE 0::UBIGINT END)::UBIGINT AS s
  FROM bits GROUP BY doc_id
), allsig AS (
  SELECT d.doc_id, coalesce(sig.s, 0::UBIGINT) AS s
  FROM documents d LEFT JOIN sig USING (doc_id)
), chunks AS (
  SELECT doc_id, s, c, (s >> (16 * c)) & 65535 AS chunk
  FROM allsig CROSS JOIN generate_series(0, 3) t(c)
), cand AS (
  SELECT DISTINCT a.doc_id AS ida, b.doc_id AS idb, a.s AS sa, b.s AS sb
  FROM chunks a JOIN chunks b
    ON a.c = b.c AND a.chunk = b.chunk AND a.doc_id < b.doc_id
)
SELECT ida AS doc_id_a, idb AS doc_id_b,
       bit_count(xor(sa, sb))::BIGINT AS hamming
FROM cand WHERE bit_count(xor(sa, sb)) <= {maxh}
""".format(maxh=max_hamming)


def payload_dedup_oracle_sql(sf_dir=None):
    """dedup_exact_payloads over the TRANSCRIPTS corpus: the corpus is a
    deterministic synthesized parquet dir, so the oracle reads it by path
    (ensure_corpus builds it if the Ray side hasn't yet).  Survivor = first
    (conv_id, turn_idx) per md5(text); DuckDB md5 hex == hashlib hexdigest."""
    from .common import sf_from_dir
    from engine.rayjob.transcripts import ensure_corpus
    sf_dir = sf_dir or _oracle_sf_dir()
    corpus = ensure_corpus(sf_from_dir(sf_dir))
    return """
WITH t AS (
  SELECT conv_id, turn_idx, md5(text) AS fp
  FROM read_parquet('{corpus}/*.parquet')
), r AS (
  SELECT fp, conv_id, turn_idx,
         row_number() OVER (PARTITION BY fp
                            ORDER BY conv_id, turn_idx) AS rn,
         count(*) OVER (PARTITION BY fp) AS n_copies
  FROM t
)
SELECT fp, conv_id, turn_idx, n_copies::BIGINT AS n_copies
FROM r WHERE rn = 1
""".format(corpus=corpus)


def embedding_dim(sf_dir=None):
    """Embedding dimensionality from the oracle sf dir's parquet (one
    batch peeked; no full read)."""
    import pyarrow.parquet as pq
    sf_dir = sf_dir or _oracle_sf_dir()
    path = os.path.join(sf_dir, 'embeddings.parquet')
    pf = pq.ParquetFile(path)
    b = next(pf.iter_batches(batch_size=1, columns=['embedding']))
    return len(b.column('embedding')[0])


def dup_lsh_oracle_sql(dim=None, threshold=0.42, n_bands=8, n_planes=4):
    """Full SQL re-derivation of embedding_dup_lsh: the seeded band
    hyperplanes inline as literals, candidate pairs = DISTINCT pairs
    agreeing on all sign bits of at least one band, verified with exact
    list_cosine_similarity ≥ threshold (same float math + half-up r4 as
    the engine's matmul kernel)."""
    from .similarity import _dup_lsh_planes
    dim = dim or embedding_dim()
    planes = _dup_lsh_planes(dim, n_bands, n_planes)     # (dim, B·P)
    band_selects = []
    for b in range(n_bands):
        pls = [_dlist(planes[:, b * n_planes + p]) for p in range(n_planes)]
        band_selects.append(
            'SELECT vec_id, ee, %d AS band, %s AS bk FROM e'
            % (b, _bucket_expr('ee', pls)))
    bands_sql = '\n  UNION ALL '.join(band_selects)
    return """
WITH e AS (
  SELECT vec_id, embedding::DOUBLE[] AS ee FROM embeddings
), bands AS (
  {bands_sql}
), cand AS (
  SELECT DISTINCT a.vec_id AS va, b.vec_id AS vb
  FROM bands a JOIN bands b
    ON a.band = b.band AND a.bk = b.bk AND a.vec_id < b.vec_id
)
SELECT c.va AS vec_id_a, c.vb AS vec_id_b,
       floor(list_cosine_similarity(ea.ee, eb.ee) * 10000 + 0.5) / 10000 AS cos
FROM cand c JOIN e ea ON ea.vec_id = c.va JOIN e eb ON eb.vec_id = c.vb
WHERE list_cosine_similarity(ea.ee, eb.ee) >= {threshold}
""".format(bands_sql=bands_sql, threshold=repr(threshold))


def tdigest_oracle_sql(sf_dir=None, k=2048, delta=64, qs=(0.5, 0.9, 0.99),
                       eps=0.05):
    """Oracle for :func:`engine.ops.relational.events_value_tdigest` —
    two independent checks fused into one hash-compared result:

    1. DETERMINISM: the per-type md5-bottom-k sample is re-derived in
       pure SQL (``md5_number_lower(event_id) & 2^63-1``, ORDER BY hk,
       value, LIMIT k — the exact convention the engine's combiner
       implements), the sample values are fed through the same
       :class:`TDigest` code at oracle-BUILD time, and the resulting
       estimates are inlined as literals.  Any drift in the engine's
       sampling, sorting, digest construction or rounding breaks hash
       parity.
    2. BRACKETING INVARIANT: the SQL independently computes, per type,
       the EXACT values at ranks ceil((q-eps)·n) and ceil((q+eps)·n)
       over the RAW data (no sampling), and poisons any inlined
       estimate that falls outside its bracket to -1e18 — so parity
       also certifies the sketch's accuracy claim, not just its
       reproducibility.  n_sample is checked in SQL as least(n, k);
       n_centroids is an inlined build-time constant (pinned further by
       the pytest property suite)."""
    import duckdb

    from .common import round_half_up
    from .sketches import TDigest

    sf_dir = sf_dir or _oracle_sf_dir()
    path = os.path.join(sf_dir, 'events.parquet')
    con = duckdb.connect()
    samples = con.execute("""
        SELECT event_type, value FROM (
          SELECT event_type, value,
                 row_number() OVER (
                   PARTITION BY event_type
                   ORDER BY (md5_number_lower(event_id::VARCHAR)
                             & 9223372036854775807)::BIGINT, value) AS rn
          FROM read_parquet(?)
        ) WHERE rn <= ? ORDER BY event_type, value
    """, [path, k]).fetch_arrow_table()
    con.close()
    types = samples.column('event_type').to_numpy(zero_copy_only=False)
    vals = samples.column('value').to_numpy(zero_copy_only=False) \
                  .astype(np.float64)
    rows = []
    starts = np.flatnonzero(np.r_[True, types[1:] != types[:-1]])
    bounds = np.r_[starts, len(types)]
    for s, e in zip(bounds[:-1], bounds[1:]):
        dig = TDigest.from_sorted(vals[s:e], delta)
        ests = ', '.join('%.17g' % round_half_up([dig.quantile(q)], 6)[0]
                         for q in qs)
        rows.append("('%s', %s, %d)" % (types[s], ests, dig.means.size))
    qcols = ['p%02d_est' % int(round(q * 100)) for q in qs]
    bracket_sql = []
    est_sql = []
    for q, col in zip(qs, qcols):
        bracket_sql.append(
            "max(CASE WHEN rn = greatest(1, ceil(({q} - {eps}) * n)::BIGINT)"
            " THEN value END) AS lo_{col},\n"
            "       max(CASE WHEN rn = least(n, ceil(({q} + {eps}) * n)::BIGINT)"
            " THEN value END) AS hi_{col}".format(q=repr(q), eps=repr(eps),
                                                  col=col))
        est_sql.append(
            "CASE WHEN v.{col} BETWEEN br.lo_{col} AND br.hi_{col}"
            " THEN v.{col} ELSE -1e18 END AS {col}".format(col=col))
    return """
WITH v(event_type, {qcols}, n_centroids) AS (VALUES
    {rows}
), ranked AS (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type ORDER BY value) AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM events
), br AS (
  SELECT event_type, any_value(n)::BIGINT AS n_events,
       {brackets}
  FROM ranked GROUP BY event_type
)
SELECT v.event_type,
       {ests},
       br.n_events,
       least(br.n_events, {k})::BIGINT AS n_sample,
       v.n_centroids::BIGINT AS n_centroids
FROM v JOIN br ON br.event_type = v.event_type
""".format(qcols=', '.join(qcols), rows=',\n    '.join(rows),
           brackets=',\n       '.join(bracket_sql),
           ests=',\n       '.join(est_sql), k=k)


def pq_oracle_sql(sf_dir=None, n_queries=16, k=5, max_train=65536):
    """Full SQL re-derivation of ann_topk_pq.  The per-subspace codebooks
    are data-dependent, so the oracle trains the SAME deterministic
    k-means on the SAME bounded raw md5-keyed sample at build time and
    inlines them as literals (ivf precedent).  Assignment parity: the
    engine's ``c·c − 2·x·c`` argmin (ties → lowest code, _seq_dot
    sequential folds) is exactly DuckDB's sequential
    ``list_dot_product``; score parity: integer LUT sums — DuckDB's
    BIGINT SUM and the engine's int64 adds are both exact."""
    from .similarity import _PQ_K, _PQ_LUT_SCALE, _PQ_M, _pq_fit
    sf_dir = sf_dir or _oracle_sf_dir()
    path = os.path.join(sf_dir, 'embeddings.parquet')
    _, train = _sample_matrix(path, max_train, raw=True)
    books = _pq_fit(train, _PQ_M, _PQ_K)
    dsub = train.shape[1] // _PQ_M
    book_rows = ',\n  '.join(
        '(%d, %d, %s)' % (s, j, _dlist(books[s][j]))
        for s in range(_PQ_M) for j in range(len(books[s])))
    sub_cases = ' '.join(
        'WHEN %d THEN ee[%d:%d]' % (s, s * dsub + 1, (s + 1) * dsub)
        for s in range(_PQ_M))
    qsub_cases = ' '.join(
        'WHEN %d THEN qe[%d:%d]' % (s, s * dsub + 1, (s + 1) * dsub)
        for s in range(_PQ_M))
    return """
WITH book(s, j, cv) AS (VALUES
  {book_rows}
), e AS (
  SELECT vec_id AS nid, embedding::DOUBLE[] AS ee FROM embeddings
), sub AS (
  SELECT nid, s, CASE s {sub_cases} END AS sv
  FROM e, (SELECT DISTINCT s FROM book) b
), asn AS (
  SELECT nid, s, j AS code FROM (
    SELECT sub.nid, sub.s, book.j,
           row_number() OVER (PARTITION BY sub.nid, sub.s
             ORDER BY list_dot_product(book.cv, book.cv)
                      - 2 * list_dot_product(sub.sv, book.cv) ASC,
                      book.j ASC) AS rn
    FROM sub JOIN book ON book.s = sub.s) WHERE rn = 1
), q AS (
  SELECT vec_id AS qid, embedding::DOUBLE[] AS qe FROM embeddings
  WHERE vec_id < {nq}
), lut AS (
  SELECT q.qid, book.s, book.j,
         CAST(floor(list_dot_product(CASE book.s {qsub_cases} END, book.cv)
                    * {scale} + 0.5) AS BIGINT) AS v
  FROM q, book
), sc AS (
  SELECT lut.qid, asn.nid, SUM(lut.v)::BIGINT AS score_int
  FROM asn JOIN lut ON lut.s = asn.s AND lut.j = asn.code
  WHERE asn.nid <> lut.qid
  GROUP BY lut.qid, asn.nid
), r AS (
  SELECT qid, nid, score_int,
         row_number() OVER (PARTITION BY qid
                            ORDER BY score_int DESC, nid ASC)::BIGINT AS rank
  FROM sc
)
SELECT qid AS query_id, nid AS neighbor_id, score_int, rank
FROM r WHERE rank <= {k}
""".format(book_rows=book_rows, sub_cases=sub_cases,
           qsub_cases=qsub_cases, nq=n_queries,
           scale=_PQ_LUT_SCALE, k=k)
