"""DuckDB oracle SQL builders for queries whose semantics are
SQL-expressible but need generated constants (hash constants, t-digest
estimates, the transcripts corpus path).

Rules shared with the engine side:
- rounding is always the half-up formula ``floor(x*10^d + 0.5)/10^d``;
- k-gram hashes are ``md5_number_lower`` & 63-bit mask
  (= :func:`engine.ops.textstats._gram_hash`);
- data-dependent constants are derived at oracle-build time from the sf
  dir the driver compares at (``$GRAFT_ORACLE_SF_DIR``).
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
