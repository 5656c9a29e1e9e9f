"""Deterministic sampling operators over the ``documents`` table.

``sample_stratified`` — per-group (lang) deterministic hash sample: keep
the ``per_group`` documents with the smallest ``md5(doc_id)`` sort key.
Hash-ordered sampling is the scale-correct pattern for training-data
subsetting: it needs no global count, no reservoir state and no
coordination — every task can score rows independently, and the same
rows are selected no matter how the input is partitioned (unlike
``Dataset.random_sample``, which is partition-dependent).  The per-block
partial top-N combiner keeps the groupby shuffle at ``per_group`` rows
per (lang, block); the group count (langs) is small by schema, so the
final fold per group key is cheap.

Sort key parity with the DuckDB oracle: ``md5_number_lower(doc_id text)``
masked to 63 bits — the same rule as textstats fingerprints.
"""

import numpy as np
import pyarrow as pa

from .common import read_table, hash63_keys

__all__ = ['sample_stratified', 'sample_uniform',
           'sample_weighted_mix', 'weighted_mix_oracle_sql',
           'split_manifest', 'split_manifest_oracle_sql']

_MASK63 = (1 << 63) - 1


def _sort_keys(doc_ids):
    """63-bit md5-based sample key per doc_id (common.hash63_keys —
    the oracle-shared convention)."""
    return hash63_keys(doc_ids)


def sample_stratified(sf_dir, per_group=50, group_col='lang'):
    """Per-``group_col`` deterministic sample of ``per_group`` documents
    (smallest md5 sort key, doc_id as tie-break)."""

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column('doc_id').to_numpy(zero_copy_only=False)
        keys = _sort_keys(ids)
        t = pa.table({
            'doc_id': batch.column('doc_id'),
            group_col: batch.column(group_col),
            'skey': pa.array(keys, pa.int64()),
        })
        # per-block, per-group top-N: sort once, take first N of each group
        t = t.sort_by([(group_col, 'ascending'), ('skey', 'ascending'),
                       ('doc_id', 'ascending')])
        g = t.column(group_col).to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        ends = np.r_[starts[1:], len(g)]
        keep = np.concatenate([
            np.arange(s, min(s + per_group, e))
            for s, e in zip(starts, ends)]) if len(g) else np.empty(0, np.int64)
        return t.take(pa.array(keep, pa.int64()))

    def final(group: pa.Table) -> pa.Table:
        ordered = group.sort_by([('skey', 'ascending'),
                                 ('doc_id', 'ascending')]).slice(0, per_group)
        n = ordered.num_rows
        return pa.table({
            'doc_id': ordered.column('doc_id'),
            group_col: ordered.column(group_col),
            'sample_rank': pa.array(np.arange(1, n + 1), pa.int64()),
        })

    ds = read_table(sf_dir, 'documents', columns=['doc_id', group_col])
    return (ds.map_batches(partial, batch_format='pyarrow',
                           zero_copy_batch=True)
              .groupby(group_col).map_groups(final, batch_format='pyarrow'))


def sample_uniform(sf_dir, rate_num=1, rate_den=5):
    """UNIFORM deterministic Bernoulli sample (rate = num/den): keep the
    rows whose 63-bit md5 sample key falls under ``rate · 2^63``.
    Stateless and partition-independent — no global count, no reservoir,
    no coordination; a pure distributed filter, so it composes with any
    upstream read and never shuffles.  The threshold is computed in
    integer arithmetic (``(2^63 · num) // den``) and inlined into the
    oracle, so both sides compare the identical BIGINT."""
    thresh = ((1 << 63) * rate_num) // rate_den

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column('doc_id').to_numpy(zero_copy_only=False)
        keys = _sort_keys(ids)
        sel = keys < thresh
        return pa.table({
            'doc_id': pa.array(ids[sel], pa.int64()),
            'lang': batch.column('lang').filter(pa.array(sel)),
            'skey': pa.array(keys[sel], pa.int64()),
        })

    ds = read_table(sf_dir, 'documents', columns=['doc_id', 'lang'])
    return ds.map_batches(keep, batch_format='pyarrow', zero_copy_batch=True)


def uniform_threshold(rate_num=1, rate_den=5):
    """The inlined-literal threshold shared with the DuckDB oracle."""
    return ((1 << 63) * rate_num) // rate_den


# Mixture weights: per-source keep rate as integer (num, den) pairs —
# the "data mixture" knob of a pre-training pipeline (upsample curated
# sources, downsample the crawl).  Integer thresholds are inlined into
# the oracle CASE ladder so both sides compare identical BIGINTs.
MIX_WEIGHTS = {
    'src0': (9, 10),
    'src1': (7, 10),
    'src2': (2, 5),
    'src3': (1, 5),
}
MIX_DEFAULT = (1, 10)


def sample_weighted_mix(sf_dir, weights=None, default=MIX_DEFAULT):
    """WEIGHTED MIXTURE sampling: per-``source`` deterministic Bernoulli
    keep rates.  Same stateless partition-independent filter as
    ``sample_uniform`` — the per-row threshold is a vectorized
    dictionary lookup on the source column, so the mixture costs nothing
    over the uniform sample and never shuffles."""
    weights = MIX_WEIGHTS if weights is None else weights
    names = list(weights)
    thresholds = np.array(
        [uniform_threshold(*weights[s]) for s in names]
        + [uniform_threshold(*default)], np.int64)

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column('doc_id').to_numpy(zero_copy_only=False)
        keys = _sort_keys(ids)
        import pyarrow.compute as pc
        code = pc.index_in(batch.column('source'),
                           value_set=pa.array(names)) \
                 .fill_null(len(names)).to_numpy(zero_copy_only=False)
        sel = keys < thresholds[code]
        return pa.table({
            'doc_id': pa.array(ids[sel], pa.int64()),
            'source': batch.column('source').filter(pa.array(sel)),
            'skey': pa.array(keys[sel], pa.int64()),
        })

    ds = read_table(sf_dir, 'documents', columns=['doc_id', 'source'])
    return ds.map_batches(keep, batch_format='pyarrow', zero_copy_batch=True)


def weighted_mix_oracle_sql(weights=None, default=MIX_DEFAULT):
    """CASE-ladder oracle with the same inlined integer thresholds."""
    weights = MIX_WEIGHTS if weights is None else weights
    cases = '\n'.join(
        "         WHEN source = '%s' THEN %d" % (s, uniform_threshold(*w))
        for s, w in weights.items())
    return """
WITH k AS (
  SELECT doc_id, source,
         (md5_number_lower(doc_id::VARCHAR) & 9223372036854775807)::BIGINT
           AS skey,
         CASE
%s
         ELSE %d END AS thresh
  FROM documents
)
SELECT doc_id, source, skey FROM k WHERE skey < thresh
""" % (cases, uniform_threshold(*default))


def split_manifest(sf_dir, train_mod=10, train_lt=8, val_eq=8):
    """TRAIN/VAL/TEST SPLIT MANIFEST — the artifact a corpus release
    ships beside the data: per (split, source), document and token
    counts under the deterministic md5 split (hash63(doc_id) % 10 →
    0-7 train, 8 val, 9 test).  One combiner pass, one tiny keyed
    exchange, all integer."""
    import pyarrow.compute as pc

    from .textstats import TOKEN_RE

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column('doc_id').to_numpy(zero_copy_only=False)
        mod = hash63_keys(ids) % train_mod
        split = np.where(mod < train_lt, 'train',
                         np.where(mod == val_eq, 'val', 'test'))
        t = pa.table({
            'split': pa.array(split, pa.string()),
            'source': batch.column('source'),
            'nt': pc.cast(pc.count_substring_regex(
                batch.column('text'), pattern=TOKEN_RE), pa.int64()),
        })
        g = t.group_by(['split', 'source']).aggregate(
            [('nt', 'sum'), ([], 'count_all')])
        return g.rename_columns(['split', 'source', 'n_tokens', 'n_docs'])

    def fold(group: pa.Table) -> pa.Table:
        g = group.group_by(['split', 'source']).aggregate(
            [('n_tokens', 'sum'), ('n_docs', 'sum')])
        return pa.table({
            'split': g.column('split'),
            'source': g.column('source'),
            'n_docs': g.column('n_docs_sum').cast(pa.int64()),
            'n_tokens': g.column('n_tokens_sum').cast(pa.int64()),
        })

    return read_table(sf_dir, 'documents',
                      columns=['doc_id', 'source', 'text']) \
        .map_batches(partial, batch_format='pyarrow',
                     zero_copy_batch=True) \
        .groupby('split').map_groups(fold, batch_format='pyarrow')


def split_manifest_oracle_sql(train_mod=10, train_lt=8, val_eq=8):
    return r"""
WITH d AS (
  SELECT CASE
           WHEN ((md5_number_lower(doc_id::VARCHAR)
                  & 9223372036854775807) % {mod}) < {lt} THEN 'train'
           WHEN ((md5_number_lower(doc_id::VARCHAR)
                  & 9223372036854775807) % {mod}) = {veq} THEN 'val'
           ELSE 'test' END AS split,
         source,
         len(regexp_extract_all(text, '\S+'))::BIGINT AS nt
  FROM documents
)
SELECT split, source, count(*)::BIGINT AS n_docs,
       sum(nt)::BIGINT AS n_tokens
FROM d GROUP BY split, source
""".format(mod=train_mod, lt=train_lt, veq=val_eq)
