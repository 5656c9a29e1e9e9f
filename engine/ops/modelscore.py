"""Batched MODEL-INFERENCE stage: a document quality model scored over
the corpus — the shape every learned-filter pass (fastText quality
classifiers, perplexity filters, reward models) takes on Ray Data:
weights load ONCE per worker from a ``ray.put`` broadcast, the batch is
scored in one vectorized pass, output is one score row per document.
Swapping the toy linear model for a real forward pass changes ONLY the
``__call__`` body; the plumbing — broadcast, task pool, batch size,
schema — is what this stage pins down.

EXACT-parity design (the "model" must be auditable by the DuckDB
oracle): features are integer counts (tokens, chars, digits), the
logit is an INTEGER dot product, and the activation is the softsign
``z / (T + |z|)`` rather than a sigmoid — one IEEE float64 division of
two int64-exact operands, identical on both sides, no exp() to drift
and no rounding step at all.  ``keep`` is the decision the pipeline
acts on (score > 0 ⇔ z > 0 — integer compare).

The weight vector is fixed ("trained" offline); the oracle SQL is
GENERATED from the same constants so the two cannot drift.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .common import BroadcastLookup, pool, read_table
from .textstats import DIGIT_RE, TOKEN_RE

__all__ = ['doc_model_score', 'model_score_oracle_sql', 'MODEL_WEIGHTS',
           'score_calibration', 'calibration_oracle_sql',
           'doc_curriculum', 'curriculum_oracle_sql']

# The "trained" model: integer weights over integer features, softsign
# temperature T.  z = w·x + b;  score = z / (T + |z|);  keep = z > 0.
MODEL_WEIGHTS = {
    'w_tokens': 50,
    'w_chars': -1,
    'w_digits': 20,
    'bias': -300,
    'temp': 1000,
}


class _Scorer(BroadcastLookup):
    """Weights fetched once per actor (``BroadcastLookup.__init__``);
    each call is one vectorized feature pass + integer dot product."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        w = self.state
        text = batch.column('text')
        n_tokens = pc.cast(pc.count_substring_regex(
            text, pattern=TOKEN_RE), pa.int64()).to_numpy()
        n_digits = pc.cast(pc.count_substring_regex(
            text, pattern=DIGIT_RE), pa.int64()).to_numpy()
        n_chars = batch.column('n_chars').to_numpy()
        z = (w['w_tokens'] * n_tokens + w['w_chars'] * n_chars
             + w['w_digits'] * n_digits + w['bias'])
        score = z.astype(np.float64) / (float(w['temp'])
                                        + np.abs(z).astype(np.float64))
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'z_num': pa.array(z, pa.int64()),
            'model_score': pa.array(score, pa.float64()),
            'keep': pa.array(z > 0, pa.bool_()),
        })


def doc_model_score(sf_dir):
    """Score every document with the broadcast quality model (module
    docstring).  Embarrassingly parallel — no shuffle; an actor pool
    sized to the cluster so a real model's load cost amortizes across
    batches."""
    ref = ray.put(MODEL_WEIGHTS)
    return read_table(sf_dir, 'documents',
                      columns=['doc_id', 'text', 'n_chars'],
                      min_blocks=pool()[1]) \
        .map_batches(_Scorer, fn_constructor_args=(ref,),
                     concurrency=pool(), batch_format='pyarrow',
                     zero_copy_batch=True)


def model_score_oracle_sql(weights=None):
    """Oracle generated from the SAME weight constants: integer logit,
    one float64 division (both operands int64-exact < 2^53)."""
    w = weights or MODEL_WEIGHTS
    return r"""
WITH f AS (SELECT doc_id,
                  CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT)
                      AS n_tokens,
                  CAST(length(regexp_extract_all(text, '[0-9]')) AS BIGINT)
                      AS n_digits,
                  n_chars
           FROM documents),
z AS (SELECT doc_id,
             {wt} * n_tokens + {wc} * n_chars + {wd} * n_digits + {b}
                 AS z_num
      FROM f)
SELECT doc_id, z_num,
       CAST(z_num AS DOUBLE) / ({t} + CAST(abs(z_num) AS DOUBLE))
           AS model_score,
       z_num > 0 AS keep
FROM z
""".format(wt=w['w_tokens'], wc=w['w_chars'], wd=w['w_digits'],
           b=w['bias'], t='%d.0' % w['temp'])


def score_calibration(sf_dir, num_buckets=10):
    """CLASSIFIER CALIBRATION curve: bucket every document by its model
    score into 10 fixed bins over (−1, 1) and report, per bin, how many
    documents the independent heuristic quality gate
    (textstats.quality_signals) keeps — the table a filter owner reads
    to pick the score threshold (a well-calibrated model shows keep-rate
    rising monotonically with the bin).  Output: (bin, n_docs,
    n_quality, quality_rate r6).

    ALL-INTEGER binning: bin = min(9, (5·(z + T + |z|)) // (T + |z|))
    is the exact integer form of floor((softsign(z) + 1)·5) — no float
    boundary to drift at a bin edge.  Shape: one (bin, counts) combiner
    per block → one tiny groupby fold (state = 10 bins); the corpus is
    touched once, nothing scales with it past the combiner."""
    from .common import round_half_up
    from .textstats import quality_signals

    w = MODEL_WEIGHTS
    T = w['temp']

    def partial(batch: pa.Table) -> pa.Table:
        text = batch.column('text')
        n_tokens = pc.cast(pc.count_substring_regex(
            text, pattern=TOKEN_RE), pa.int64()).to_numpy()
        n_digits = pc.cast(pc.count_substring_regex(
            text, pattern=DIGIT_RE), pa.int64()).to_numpy()
        n_chars = batch.column('n_chars').to_numpy()
        z = (w['w_tokens'] * n_tokens + w['w_chars'] * n_chars
             + w['w_digits'] * n_digits + w['bias'])
        az = np.abs(z)
        bins = np.minimum(9, (5 * (z + T + az)) // (T + az))
        _, _, _, keep = quality_signals(text)
        t = pa.table({
            'bin': pa.array(bins, pa.int64()),
            'q': pa.array(keep.astype(np.int64), pa.int64()),
        })
        g = t.group_by('bin').aggregate([('q', 'sum'), ([], 'count_all')])
        return g.rename_columns(['bin', 'n_quality', 'n_docs'])

    def fold(group: pa.Table) -> pa.Table:
        g = group.group_by('bin').aggregate([('n_quality', 'sum'),
                                             ('n_docs', 'sum')])
        nq = g.column('n_quality_sum').to_numpy(zero_copy_only=False) \
              .astype(np.int64)
        nd = g.column('n_docs_sum').to_numpy(zero_copy_only=False) \
              .astype(np.int64)
        return pa.table({
            'bin': g.column('bin'),
            'n_docs': pa.array(nd, pa.int64()),
            'n_quality': pa.array(nq, pa.int64()),
            'quality_rate': pa.array(
                round_half_up(nq.astype(np.float64)
                              / nd.astype(np.float64), 6), pa.float64()),
        })

    return read_table(sf_dir, 'documents', columns=['text', 'n_chars'],
                      min_blocks=pool()[1]) \
        .map_batches(partial, batch_format='pyarrow',
                     zero_copy_batch=True) \
        .groupby('bin').map_groups(fold, batch_format='pyarrow')


def calibration_oracle_sql(weights=None):
    """Oracle generated from the SAME weight + quality-gate constants:
    integer logit, integer bin arithmetic, the corpus_clean oracle's
    half-up quality-ratio expressions, one final r6 division."""
    from .textstats import (QUALITY_MAX_TOKENS, QUALITY_MIN_STOPWORD_RATIO,
                            QUALITY_MIN_TOKENS, STOPWORD_RE)
    w = weights or MODEL_WEIGHTS
    return r"""
WITH f AS (
  SELECT len(regexp_extract_all(text, '\S+'))::BIGINT AS n_tokens,
         len(regexp_extract_all(text, '{stop}'))::BIGINT AS n_stop,
         len(regexp_extract_all(text, '[0-9]'))::BIGINT AS n_digits,
         n_chars
  FROM documents
), z AS (
  SELECT {wt} * n_tokens + {wc} * n_chars + {wd} * n_digits + {b} AS z_num,
         n_tokens, n_stop
  FROM f
), g AS (
  SELECT least(9, (5 * (z_num + {t} + abs(z_num)))
                   // ({t} + abs(z_num)))::BIGINT AS bin,
         CASE WHEN n_tokens >= {mint} AND n_tokens <= {maxt}
                   AND (CASE WHEN n_tokens > 0
                        THEN floor(n_stop::DOUBLE / n_tokens
                                   * 1000000 + 0.5) / 1000000
                        ELSE 0.0 END) > {minr}
              THEN 1 ELSE 0 END AS q
  FROM z
)
SELECT bin, count(*)::BIGINT AS n_docs, sum(q)::BIGINT AS n_quality,
       floor(sum(q)::DOUBLE / count(*)::DOUBLE * 1000000 + 0.5)
         / 1000000 AS quality_rate
FROM g GROUP BY bin
""".format(wt=w['w_tokens'], wc=w['w_chars'], wd=w['w_digits'],
           b=w['bias'], t=w['temp'], stop=STOPWORD_RE,
           mint=QUALITY_MIN_TOKENS, maxt=QUALITY_MAX_TOKENS,
           minr=repr(QUALITY_MIN_STOPWORD_RATIO))


def doc_curriculum(sf_dir, n_tiles=10, vrange=256, num_buckets=64,
                   max_vbuckets=1 << 20):
    """CURRICULUM ORDERING: every document's global rank and n-tile under
    (model logit, doc_id) order — the table a curriculum-learning run
    reads to feed easy→hard (or clean→noisy) phases.  The repo's
    ordered-prefix-scan shape (customer_ltv_deciles, relational.py) on
    the INTEGER logit z_num, so rank arithmetic is exact end-to-end:

      1. score every doc (the broadcast model stage, no shuffle) and
         materialize the doc-cardinality (doc_id, z_num) table — the
         same bounded-by-entity-count contract LTV's customer fold
         documents;
      2. per-logit-range bucket counts → a loudly-guarded driver
         exclusive scan (state = value range / vrange);
      3. per-bucket finalize: lexsort (z_num, doc_id), rank = bucket
         offset + position, tile = rank·n_tiles // n.
    """
    import numpy as np

    scores = doc_model_score(sf_dir)

    def slim(batch: pa.Table) -> pa.Table:
        z = batch.column('z_num').to_numpy(zero_copy_only=False)
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'z_num': batch.column('z_num'),
            'vbucket': pa.array(z // vrange, pa.int64()),
        })

    tbl = scores.map_batches(slim, batch_format='pyarrow',
                             zero_copy_batch=True).materialize()

    def vcounts(batch: pa.Table) -> pa.Table:
        g = batch.select(['vbucket']).group_by('vbucket') \
                 .aggregate([([], 'count_all')])
        return g.rename_columns(['vbucket', 'cnt'])

    parts = [t for t in ray.get(
        tbl.map_batches(vcounts, batch_format='pyarrow')
           .groupby('vbucket')
           .map_groups(lambda g: g.group_by('vbucket')
                       .aggregate([('cnt', 'sum')])
                       .rename_columns(['vbucket', 'cnt']),
                       batch_format='pyarrow')
           .to_arrow_refs()) if t.num_rows]
    totals = pa.concat_tables(parts) if parts else \
        pa.table({'vbucket': pa.array([], pa.int64()),
                  'cnt': pa.array([], pa.int64())})
    if totals.num_rows > max_vbuckets:
        raise RuntimeError(
            'doc_curriculum: %d logit-range buckets exceeds '
            'max_vbuckets=%d; raise vrange'
            % (totals.num_rows, max_vbuckets))
    vb = totals.column('vbucket').to_numpy(zero_copy_only=False)
    cn = totals.column('cnt').to_numpy(zero_copy_only=False)
    order = np.argsort(vb, kind='stable')
    vb, cn = vb[order], cn[order]
    offs, acc = [], 0
    for c in cn:
        offs.append(acc)
        acc += int(c)
    n = acc
    offsets_ref = ray.put({int(b): o for b, o in zip(vb, offs)})

    def finalize(group: pa.Table) -> pa.Table:
        ids = group.column('doc_id').to_numpy(zero_copy_only=False)
        z = group.column('z_num').to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, z))
        ids, z = ids[order], z[order]
        off = ray.get(offsets_ref)[int(z[0]) // vrange] if len(ids) else 0
        rank = off + np.arange(len(ids), dtype=np.int64)   # 0-based
        return pa.table({
            'doc_id': pa.array(ids, pa.int64()),
            'z_num': pa.array(z, pa.int64()),
            'rank': pa.array(rank + 1, pa.int64()),        # 1-based out
            'tile': pa.array(rank * n_tiles // n, pa.int64()),
        })

    return tbl.groupby('vbucket').map_groups(finalize,
                                             batch_format='pyarrow')


def curriculum_oracle_sql(n_tiles=10, weights=None):
    """LTV_DECILES_SQL's window shape over the model-score oracle's
    integer logit."""
    w = weights or MODEL_WEIGHTS
    return r"""
WITH f AS (SELECT doc_id,
                  CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT)
                      AS n_tokens,
                  CAST(length(regexp_extract_all(text, '[0-9]')) AS BIGINT)
                      AS n_digits,
                  n_chars
           FROM documents),
z AS (SELECT doc_id,
             {wt} * n_tokens + {wc} * n_chars + {wd} * n_digits + {b}
                 AS z_num
      FROM f),
r AS (SELECT doc_id, z_num,
             row_number() OVER (ORDER BY z_num, doc_id)::BIGINT AS rank,
             count(*) OVER ()::BIGINT AS n
      FROM z)
SELECT doc_id, z_num, rank,
       ((rank - 1) * {k} // n)::BIGINT AS tile
FROM r
""".format(wt=w['w_tokens'], wc=w['w_chars'], wd=w['w_digits'],
           b=w['bias'], k=int(n_tiles))
