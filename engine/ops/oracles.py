"""DuckDB oracle SQL generated from parameters: the winnowing
fingerprint of :func:`engine.ops.textstats.fingerprint_winnow`.

k-gram hashes are ``md5_number_lower`` & 63-bit mask, the same rule as
:func:`engine.ops.textstats._gram_hash`.
"""


def _winnow_d_cte(k, w):
    """The winnow-set CTE chain (pos → g → wm → sel → d) that
    winnow_oracle_sql certifies: k-gram md5 hash, window min, the
    n <= w single-min corner.  ``d`` = DISTINCT (doc_id, wmin)."""
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
