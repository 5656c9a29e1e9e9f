"""Pipelines over the synthetic ``events`` table — the §2.9 plan-op layer.

Patterns demonstrated (each is the 100 TB-shape of the operation):

- *Pre-aggregated groupby*: every aggregate does a PARTIAL Arrow
  ``Table.group_by`` inside map_batches first, so the all-to-all groupby
  shuffle moves one combiner row per (key, block), never raw rows.
- *Bucketed exchange*: per-user logic groups on ``key & (nb-1)``, ONE
  exchange, with vectorized numpy resolution per bucket.  Grouping on the
  RAW key would pay ~50µs of map_groups Python+Arrow tax per key —
  billions of groups at corpus scale.
- *Broadcast of a small fold*: a low-cardinality result (per-type
  moments, a per-bucket prefix) is ``ray.put`` ONCE and shared by every
  worker that reads it (``common.BroadcastLookup`` fetches it once per
  actor).
- *Predicate/column pruning at the read* (``columns=``), and read blocks
  sized by BYTES (common.read_table) so exchange task counts track data.
- *Sessionize*: ordered per-key logic resolved for a whole bucket at once
  (lexsort + break vectors / forward-fill).
- *Windowed aggregates*: tumbling and sliding window keys DERIVED in the
  map stage; shuffles move combiner rows only.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .common import BroadcastLookup, round_half_up, read_table, pool

__all__ = ['events_by_type', 'events_sessionize', 'events_windowed',
           'events_windowed_sliding', 'events_value_quantiles',
           'events_user_running', 'events_props_stats',
           'events_value_hist_quantiles', 'user_event_pivot',
           'events_user_rolling', 'events_latest_per_user', 'events_rollup',
           'events_funnel', 'users_view_and_purchase',
           'users_purchase_not_view', 'events_time_rolling',
           'events_value_zscore', 'events_value_deciles',
           'events_hour_value_corr', 'events_debounced', 'user_event_paths',
           'events_windowed_distinct_users', 'events_value_mad_outliers',
           'events_anomaly_days', 'events_late_arrivals', 'session_durations',
           'purchase_view_lag', 'events_type_drift', 'events_hourly_profile',
           'user_decay_score', 'events_user_gini', 'events_funnel_windowed',
           'events_dau_wau']


def rank_in_sorted_key(keys_sorted):
    """1-based rank within each run of equal keys (keys must be sorted so
    equal keys are contiguous).  Vectorized: run starts → forward-fill the
    start index → rank = position - run_start + 1.  Shared by every
    grouped-top-k stage (partial AND per-bucket) so both tiers apply the
    identical ordering rule."""
    n = len(keys_sorted)
    if n == 0:
        return np.empty(0, np.int64)
    new = np.empty(n, np.bool_)
    new[0] = True
    new[1:] = keys_sorted[1:] != keys_sorted[:-1]
    idx = np.arange(n, dtype=np.int64)
    starts = np.where(new, idx, 0)
    np.maximum.accumulate(starts, out=starts)
    return idx - starts + 1


def events_by_type(sf_dir):
    """events rollup: count / value sum / distinct users per event type."""
    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({'event_type': batch.column('event_type'),
                      'value': batch.column('value'),
                      'user_id': batch.column('user_id')})
        g = t.group_by(['event_type', 'user_id']).aggregate(
            [('value', 'sum'), ('value', 'count')])
        return g.rename_columns(['event_type', 'user_id', 'v_sum', 'cnt'])

    def final(group: pa.Table) -> pa.Table:
        v = pc.sum(group.column('v_sum')).as_py() or 0.0
        n = pc.sum(group.column('cnt')).as_py() or 0
        users = pc.count_distinct(group.column('user_id')).as_py()
        return pa.table({
            'event_type': group.column('event_type').slice(0, 1),
            'n_events': pa.array([n], pa.int64()),
            'sum_value': pa.array(round_half_up([v], 2), pa.float64()),
            'avg_value': pa.array(round_half_up([v / n if n else 0.0], 6),
                                  pa.float64()),
            'n_users': pa.array([users], pa.int64()),
        })

    ds = read_table(sf_dir, 'events',
                               columns=['event_type', 'value', 'user_id'])
    return (ds.map_batches(partial, batch_format='pyarrow', zero_copy_batch=True)
              .groupby('event_type').map_groups(final, batch_format='pyarrow'))


def events_sessionize(sf_dir, gap_s=1800, num_buckets=64):
    """Per-user sessionization: sort by ts within user, session break when
    the gap exceeds ``gap_s``.

    BUCKETED, not per-user: grouping on raw user_id pays the ~50µs
    map_groups Python+Arrow tax once per USER (billions of groups at
    corpus scale).  Instead the groupby key is ``user_id & (nb-1)`` and
    each bucket sessionizes ALL its users in one vectorized pass — a
    lexsort by (user, ts), one boolean break vector (user change OR gap
    exceeded), and a C++ ``group_by(user).sum/count`` fold."""
    gap_us = gap_s * 1_000_000
    nb = num_buckets

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = batch.column('user_id').to_numpy(zero_copy_only=False) & (nb - 1)
        return batch.append_column('bucket', pa.array(b, pa.int64()))

    def sessions(group: pa.Table) -> pa.Table:
        uid = group.column('user_id').to_numpy(zero_copy_only=False)
        ts = group.column('ts').cast(pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, uid))
        uid, ts = uid[order], ts[order]
        new_user = np.empty(len(uid), np.bool_)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        brk = new_user | (np.diff(ts, prepend=ts[0]) > gap_us)
        t = pa.table({'user_id': pa.array(uid, pa.int64()),
                      'brk': pa.array(brk.astype(np.int64), pa.int64())})
        g = t.group_by('user_id').aggregate([('brk', 'count'), ('brk', 'sum')])
        g = g.rename_columns(['user_id', 'n_events', 'n_sessions'])
        return pa.table({'user_id': g.column('user_id'),
                         'n_events': g.column('n_events').cast(pa.int64()),
                         'n_sessions': g.column('n_sessions')})

    ds = read_table(sf_dir, 'events', columns=['user_id', 'ts'])
    return (ds.map_batches(add_bucket, batch_format='pyarrow',
                           zero_copy_batch=True)
              .groupby('bucket').map_groups(sessions, batch_format='pyarrow'))


def events_windowed(sf_dir):
    """Tumbling 1-day windowed aggregate per event type: the window key is
    DERIVED IN THE MAP STAGE (vectorized timestamp floor), so the groupby
    shuffle moves pre-aggregated (type, window) combiner rows only — the
    standard way to express time windows when the engine has no native
    window operator."""
    def partial(batch: pa.Table) -> pa.Table:
        day = pc.floor_temporal(batch.column('ts'), unit='day')
        t = pa.table({'event_type': batch.column('event_type'),
                      'window_start': day,
                      'value': batch.column('value')})
        g = t.group_by(['event_type', 'window_start']).aggregate(
            [('value', 'sum'), ('value', 'count')])
        return g.rename_columns(['event_type', 'window_start', 'v_sum', 'cnt'])

    def final(group: pa.Table) -> pa.Table:
        v = pc.sum(group.column('v_sum')).as_py() or 0.0
        n = pc.sum(group.column('cnt')).as_py() or 0
        return pa.table({
            'event_type': group.column('event_type').slice(0, 1),
            'window_start': group.column('window_start').slice(0, 1),
            'n_events': pa.array([n], pa.int64()),
            'sum_value': pa.array(round_half_up([v], 2), pa.float64()),
        })

    ds = read_table(sf_dir, 'events',
                               columns=['event_type', 'ts', 'value'])
    return (ds.map_batches(partial, batch_format='pyarrow', zero_copy_batch=True)
              .groupby(['event_type', 'window_start'])
              .map_groups(final, batch_format='pyarrow'))


def events_windowed_distinct_users(sf_dir):
    """Tumbling 1-day window per event type with an EXACT distinct-user
    count.  Exact count-distinct inherently exchanges one row per distinct
    (type, window, user) per block — the per-block Arrow group_by
    combiner collapses raw events to that floor (carrying the event
    multiplicity alongside, so ``n_events`` rides the same exchange),
    and the per-group fold is a C++ distinct + two column folds.  At
    100 TB, windows bound the per-group distinct state (a day's users,
    not the corpus's)."""
    def partial(batch: pa.Table) -> pa.Table:
        day = pc.floor_temporal(batch.column('ts'), unit='day')
        t = pa.table({'event_type': batch.column('event_type'),
                      'window_start': day,
                      'user_id': batch.column('user_id')})
        g = t.group_by(['event_type', 'window_start', 'user_id']) \
             .aggregate([([], 'count_all')])
        return g.rename_columns(['event_type', 'window_start', 'user_id',
                                 'cnt'])

    def final(group: pa.Table) -> pa.Table:
        users = group.group_by('user_id').aggregate([])
        n = int(pc.sum(group.column('cnt')).as_py() or 0)
        return pa.table({
            'event_type': group.column('event_type').slice(0, 1),
            'window_start': group.column('window_start').slice(0, 1),
            'n_events': pa.array([n], pa.int64()),
            'distinct_users': pa.array([users.num_rows], pa.int64()),
        })

    ds = read_table(sf_dir, 'events',
                    columns=['event_type', 'ts', 'user_id'])
    return (ds.map_batches(partial, batch_format='pyarrow',
                           zero_copy_batch=True)
              .groupby(['event_type', 'window_start'])
              .map_groups(final, batch_format='pyarrow'))


_DAY_US = 86_400_000_000


def events_windowed_sliding(sf_dir, size_days=3, slide_days=1):
    """SLIDING (hopping) windowed aggregate per event type: windows of
    ``size_days`` advancing every ``slide_days`` (size must be a multiple
    of slide).  Same derived-key shape as the tumbling variant — an event
    belongs to exactly ``size/slide`` windows, so the map stage REPLICATES
    each row into its windows (vectorized int arithmetic on the epoch),
    partial-aggregates per (type, window_start) within the batch, and the
    groupby shuffle again moves combiner rows only: the shuffle grows by
    the window overlap factor applied to COMBINER rows (distinct keys per
    block), never to raw events."""
    if size_days % slide_days:
        raise ValueError('size_days must be a multiple of slide_days')
    nwin = size_days // slide_days
    slide_us = slide_days * _DAY_US

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column('ts').cast(pa.int64()).to_numpy(zero_copy_only=False)
        anchor = (ts // slide_us) * slide_us  # latest window containing ts
        parts = []
        for kk in range(nwin):
            parts.append(pa.table({
                'event_type': batch.column('event_type'),
                'window_start': pa.array(anchor - kk * slide_us, pa.int64()),
                'value': batch.column('value'),
            }))
        t = pa.concat_tables(parts)
        g = t.group_by(['event_type', 'window_start']).aggregate(
            [('value', 'sum'), ('value', 'count')])
        return g.rename_columns(['event_type', 'window_start', 'v_sum', 'cnt'])

    def final(group: pa.Table) -> pa.Table:
        v = pc.sum(group.column('v_sum')).as_py() or 0.0
        n = pc.sum(group.column('cnt')).as_py() or 0
        return pa.table({
            'event_type': group.column('event_type').slice(0, 1),
            'window_start': group.column('window_start').slice(0, 1)
                                 .cast(pa.timestamp('us')),
            'n_events': pa.array([n], pa.int64()),
            'sum_value': pa.array(round_half_up([v], 2), pa.float64()),
        })

    ds = read_table(sf_dir, 'events', columns=['event_type', 'ts', 'value'])
    return (ds.map_batches(partial, batch_format='pyarrow', zero_copy_batch=True)
              .groupby(['event_type', 'window_start'])
              .map_groups(final, batch_format='pyarrow'))


def events_value_quantiles(sf_dir, qs=(0.5, 0.9, 0.99)):
    """EXACT per-group discrete quantiles (percentile_disc semantics: the
    value at 1-based sorted position ceil(q·n)) of event value per type.

    Combiner-first: each block folds to (type, value, count) rows — the
    exchange moves one row per DISTINCT value per block, then each group
    resolves from the merged value histogram (sort values, cumulative
    counts, searchsorted per quantile).  NOTE the honest scale contract:
    for CONTINUOUS values the distinct-value histogram is O(rows) and a
    group's histogram must fit a worker — exact quantiles fundamentally
    need the group's value multiset.  For heavy continuous data at 100 TB
    use the histogram tier (:func:`events_value_hist_quantiles`) over a
    known range or a sort-based global-index pass; this operator is the
    exact tier."""
    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(['event_type', 'value']) \
                 .aggregate([([], 'count_all')])
        return g.rename_columns(['event_type', 'value', 'cnt'])

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by('value').aggregate([('cnt', 'sum')])
        vals = g.column('value').to_numpy(zero_copy_only=False)
        cnts = g.column('cnt_sum').to_numpy(zero_copy_only=False)
        order = np.argsort(vals, kind='mergesort')
        vals, cnts = vals[order], cnts[order]
        cum = np.cumsum(cnts)
        n = int(cum[-1])
        cols = {'event_type': group.column('event_type').slice(0, 1)}
        for q in qs:
            target = int(np.ceil(q * n))
            pos = int(np.searchsorted(cum, target, side='left'))
            cols['p%02d' % int(round(q * 100))] = pa.array([float(vals[pos])],
                                                    pa.float64())
        cols['n_events'] = pa.array([n], pa.int64())
        return pa.table(cols)

    ds = read_table(sf_dir, 'events', columns=['event_type', 'value'])
    return ds.map_batches(partial, batch_format='pyarrow',
                          zero_copy_batch=True) \
             .groupby('event_type').map_groups(final, batch_format='pyarrow')


_MAD_K = 4.4478          # 3 sigma-equivalents x 1.4826 (normal consistency)


def events_value_mad_outliers(sf_dir):
    """Robust anomaly detection per event type: median / MAD (median
    absolute deviation) and the count of events beyond
    ``_MAD_K * MAD`` — the outlier gate that survives heavy tails where
    mean/stddev z-scores (:func:`events_value_zscore`) blow up.

    percentile_disc semantics throughout (the value at 1-based sorted
    position ceil(0.5·n)), so ``median`` and ``mad`` are actual DATA
    values, not interpolations — there is no float-formula drift for the
    oracle to chase; the only arithmetic is |v − med| and one threshold
    compare, identical IEEE ops on both sides.

    Scale shape: same combiner contract as the exact-quantile tier —
    each block folds to (type, value, cnt) rows, each group resolves
    median, then MAD, from the merged distinct-value histogram (two
    weighted searchsorted passes over distinct values).  O(distinct
    values) group state."""
    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(['event_type', 'value']) \
                 .aggregate([([], 'count_all')])
        return g.rename_columns(['event_type', 'value', 'cnt'])

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by('value').aggregate([('cnt', 'sum')])
        vals = g.column('value').to_numpy(zero_copy_only=False) \
                .astype(np.float64)
        cnts = g.column('cnt_sum').to_numpy(zero_copy_only=False)
        order = np.argsort(vals, kind='mergesort')
        vals, cnts = vals[order], cnts[order]
        cum = np.cumsum(cnts)
        n = int(cum[-1])
        med = float(vals[np.searchsorted(cum, int(np.ceil(0.5 * n)),
                                         side='left')])
        dev = np.abs(vals - med)
        dorder = np.argsort(dev, kind='mergesort')
        dcum = np.cumsum(cnts[dorder])
        mad = float(dev[dorder][np.searchsorted(
            dcum, int(np.ceil(0.5 * n)), side='left')])
        n_out = int(cnts[dev > _MAD_K * mad].sum())
        return pa.table({
            'event_type': group.column('event_type').slice(0, 1),
            'median': pa.array([med], pa.float64()),
            'mad': pa.array([mad], pa.float64()),
            'n_outliers': pa.array([n_out], pa.int64()),
            'n_events': pa.array([n], pa.int64()),
        })

    ds = read_table(sf_dir, 'events', columns=['event_type', 'value'])
    return ds.map_batches(partial, batch_format='pyarrow',
                          zero_copy_batch=True) \
             .groupby('event_type').map_groups(final, batch_format='pyarrow')


MAD_OUTLIERS_SQL = """
WITH r AS (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type ORDER BY value) AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM events
), med AS (
  SELECT event_type, max(n) AS n,
         max(CASE WHEN rn = ceil(0.5 * n) THEN value END) AS med
  FROM r GROUP BY event_type
), d AS (
  SELECT e.event_type, abs(e.value - m.med) AS dev, m.med, m.n
  FROM events e JOIN med m USING (event_type)
), r2 AS (
  SELECT event_type, dev, med, n,
         row_number() OVER (PARTITION BY event_type ORDER BY dev) AS rn
  FROM d
), mad AS (
  SELECT event_type, max(med) AS med, max(n) AS n,
         max(CASE WHEN rn = ceil(0.5 * n) THEN dev END) AS mad
  FROM r2 GROUP BY event_type
)
SELECT m.event_type, m.med AS median, m.mad,
       (SELECT count(*) FROM d
        WHERE d.event_type = m.event_type
          AND d.dev > {k} * m.mad)::BIGINT AS n_outliers,
       m.n AS n_events
FROM mad m
""".format(k=repr(_MAD_K))


def events_user_running(sf_dir, num_buckets=64):
    """PER-ROW WINDOW FUNCTIONS over a partitioned, ordered stream: for
    every event, its 1-based sequence number within the user, the user's
    RUNNING value total up to and including it, and the LAG gap (µs since
    the user's previous event; null on the first).

    Same bucketed shape as sessionize — groupby ``user_id & (nb-1)``,
    one vectorized pass per bucket over ALL its users (lexsort by
    (user, ts, event_id), run-rank for seq, cumsum-minus-run-base for
    the running total, shifted-diff masked at run starts for the lag).
    Grouping on the raw user_id would pay the map_groups tax per USER.

    Float-parity rule: the running total is carried in integer CENTS
    (``floor(value·100 + 0.5)``) — a per-group float cumsum computed as
    ``cumsum - base`` is not bit-identical to the oracle's fresh
    per-partition summation, integer arithmetic is.  Output cardinality
    equals the input (this is a transform, not a rollup): at 100 TB the
    result is written back out, never collected."""
    nb = num_buckets

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = batch.column('user_id').to_numpy(zero_copy_only=False) & (nb - 1)
        return batch.append_column('bucket', pa.array(b, pa.int64()))

    def windows(group: pa.Table) -> pa.Table:
        uid = group.column('user_id').to_numpy(zero_copy_only=False)
        ts = group.column('ts').cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = group.column('event_id').to_numpy(zero_copy_only=False)
        cents = np.floor(group.column('value').to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, cents = uid[order], ts[order], eid[order], cents[order]
        seq = rank_in_sorted_key(uid)
        new_user = seq == 1
        cum = np.cumsum(cents)
        idx = np.arange(len(uid), dtype=np.int64)
        starts = np.where(new_user, idx, 0)
        np.maximum.accumulate(starts, out=starts)
        running = cum - (cum - cents)[starts]
        gap = ts - np.concatenate(([np.int64(0)], ts[:-1]))
        return pa.table({
            'event_id': pa.array(eid, pa.int64()),
            'user_id': pa.array(uid, pa.int64()),
            'seq': pa.array(seq, pa.int64()),
            'running_cents': pa.array(running, pa.int64()),
            'gap_us': pa.array(gap, pa.int64(), mask=new_user),
        })

    ds = read_table(sf_dir, 'events',
                    columns=['event_id', 'ts', 'user_id', 'value'])
    return (ds.map_batches(add_bucket, batch_format='pyarrow',
                           zero_copy_batch=True)
              .groupby('bucket').map_groups(windows, batch_format='pyarrow'))


def events_props_stats(sf_dir):
    """SEMI-STRUCTURED EXTRACTION: parse the integer ``k`` field out of the
    JSON ``props`` column (vectorized RE2 ``extract_regex`` — no per-row
    json.loads) and roll it up per event type: count, sum, max, distinct
    count, mean.

    Combiner-first distinct: each block folds to (type, k, cnt) rows —
    the exchange moves one row per distinct (type, k) per block, and the
    final per-type fold re-groups by k for the exact distinct count.
    The oracle parses with DuckDB's ``json_extract`` — an INDEPENDENT
    JSON parser, not the same regex — so the check is semantic."""
    def partial(batch: pa.Table) -> pa.Table:
        k = pc.cast(pc.struct_field(
            pc.extract_regex(batch.column('props'), r'"k": (?P<k>\d+)'), 'k'),
            pa.int64())
        t = pa.table({'event_type': batch.column('event_type'), 'k': k})
        g = t.group_by(['event_type', 'k']).aggregate([([], 'count_all')])
        return g.rename_columns(['event_type', 'k', 'cnt'])

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by('k').aggregate([('cnt', 'sum')])
        k = g.column('k').to_numpy(zero_copy_only=False)
        cnt = g.column('cnt_sum').to_numpy(zero_copy_only=False)
        n = int(cnt.sum())
        sum_k = int((k * cnt).sum())
        return pa.table({
            'event_type': group.column('event_type').slice(0, 1),
            'n_events': pa.array([n], pa.int64()),
            'sum_k': pa.array([sum_k], pa.int64()),
            'max_k': pa.array([int(k.max())], pa.int64()),
            'n_distinct_k': pa.array([g.num_rows], pa.int64()),
            'avg_k': pa.array(round_half_up([sum_k / n], 6), pa.float64()),
        })

    ds = read_table(sf_dir, 'events', columns=['event_type', 'props'])
    return (ds.map_batches(partial, batch_format='pyarrow',
                           zero_copy_batch=True)
              .groupby('event_type').map_groups(final, batch_format='pyarrow'))


def events_value_hist_quantiles(sf_dir, width=0.5, qs=(0.5, 0.9, 0.99)):
    """APPROXIMATE per-group quantiles from a fixed-width HISTOGRAM sketch
    — the bounded-state scale tier beside ``events_value_quantiles``
    (exact, O(distinct values) state).  Each block folds values to
    ``floor(value/width)`` bin counts; the merged histogram resolves each
    quantile to its bin's UPPER edge ``(bin+1)·width`` — deterministic,
    error < ``width``, and state is O(value range / width) per group
    regardless of row count, so a 100 TB group costs the same exchange as
    a 1 GB one.  The error bound needs a known value range."""
    def partial(batch: pa.Table) -> pa.Table:
        b = np.floor(batch.column('value').to_numpy(
            zero_copy_only=False) / width).astype(np.int64)
        t = pa.table({'event_type': batch.column('event_type'),
                      'bin': pa.array(b, pa.int64())})
        g = t.group_by(['event_type', 'bin']).aggregate([([], 'count_all')])
        return g.rename_columns(['event_type', 'bin', 'cnt'])

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by('bin').aggregate([('cnt', 'sum')])
        bins = g.column('bin').to_numpy(zero_copy_only=False)
        cnts = g.column('cnt_sum').to_numpy(zero_copy_only=False)
        order = np.argsort(bins, kind='mergesort')
        bins, cnts = bins[order], cnts[order]
        cum = np.cumsum(cnts)
        n = int(cum[-1])
        cols = {'event_type': group.column('event_type').slice(0, 1)}
        for q in qs:
            pos = int(np.searchsorted(cum, np.ceil(q * n), side='left'))
            cols['p%02d_est' % int(round(q * 100))] = pa.array(
                [(float(bins[pos]) + 1.0) * width], pa.float64())
        cols['n_events'] = pa.array([n], pa.int64())
        cols['n_bins'] = pa.array([len(bins)], pa.int64())
        return pa.table(cols)

    ds = read_table(sf_dir, 'events', columns=['event_type', 'value'])
    return (ds.map_batches(partial, batch_format='pyarrow',
                           zero_copy_batch=True)
              .groupby('event_type').map_groups(final, batch_format='pyarrow'))


_EVENT_TYPES = ('click', 'error', 'purchase', 'signup', 'view')


def user_event_pivot(sf_dir, event_types=_EVENT_TYPES, num_buckets=64):
    """PIVOT / reshape: one row per user with a count column per event
    type (long → wide).  The pivot happens INSIDE the per-block combiner
    — each block folds to (user, type, cnt) rows, the bucketed exchange
    moves combiner rows only, and each bucket pivots ALL its users in one
    vectorized scatter (type dictionary-encode → (row, col) index → 2-D
    bincount), not a per-user map_groups.  ``event_types`` — the column
    set — is the operator's PARAMETER (known vocabulary): the standard
    contract for pivot at scale, since discovered-at-runtime columns
    would need a schema barrier.  A value outside the vocabulary raises
    a named ValueError rather than failing deep in a worker."""
    nb = num_buckets
    type_idx = {t: i for i, t in enumerate(event_types)}

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({'user_id': batch.column('user_id'),
                      'event_type': batch.column('event_type')})
        g = t.group_by(['user_id', 'event_type']).aggregate([([], 'count_all')])
        g = g.rename_columns(['user_id', 'event_type', 'cnt'])
        b = g.column('user_id').to_numpy(zero_copy_only=False) & (nb - 1)
        return g.append_column('bucket', pa.array(b, pa.int64()))

    def pivot(group: pa.Table) -> pa.Table:
        uid = group.column('user_id').to_numpy(zero_copy_only=False)
        cnt = group.column('cnt').to_numpy(zero_copy_only=False)
        # type → column index in C++: dictionary-encode the (already
        # combiner-deduped) type column, remap only the tiny dictionary
        enc = group.column('event_type').combine_chunks().dictionary_encode()
        dict_vals = enc.dictionary.to_pylist()
        unknown = [v for v in dict_vals if v not in type_idx]
        if unknown:
            raise ValueError(
                'user_event_pivot: event_type values %r are not in the '
                'pivot vocabulary %r' % (unknown, list(event_types)))
        remap = np.fromiter((type_idx[v] for v in dict_vals), np.int64,
                            len(dict_vals))
        col = remap[enc.indices.to_numpy(zero_copy_only=False)]
        users, row = np.unique(uid, return_inverse=True)
        wide = np.zeros((len(users), len(event_types)), np.int64)
        np.add.at(wide, (row, col), cnt)
        cols = {'user_id': pa.array(users, pa.int64())}
        for i, t in enumerate(event_types):
            cols['n_' + t] = pa.array(wide[:, i], pa.int64())
        cols['n_total'] = pa.array(wide.sum(axis=1), pa.int64())
        return pa.table(cols)

    ds = read_table(sf_dir, 'events', columns=['user_id', 'event_type'])
    return (ds.map_batches(partial, batch_format='pyarrow',
                           zero_copy_batch=True)
              .groupby('bucket').map_groups(pivot, batch_format='pyarrow'))


def events_user_rolling(sf_dir, frame=3, num_buckets=64):
    """FRAME-BOUNDED rolling window: per event, the sum of the user's
    last ``frame`` event values (ROWS BETWEEN frame-1 PRECEDING AND
    CURRENT ROW) — the moving-aggregate companion to the UNBOUNDED
    running total in :func:`events_user_running`.  Same bucketed
    one-pass-per-bucket shape; the frame sum is a cumsum difference
    clamped at each user's run start (integer cents — exact float parity
    with the SQL window oracle)."""
    nb = num_buckets

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = batch.column('user_id').to_numpy(zero_copy_only=False) & (nb - 1)
        return batch.append_column('bucket', pa.array(b, pa.int64()))

    def rolling(group: pa.Table) -> pa.Table:
        uid = group.column('user_id').to_numpy(zero_copy_only=False)
        ts = group.column('ts').cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = group.column('event_id').to_numpy(zero_copy_only=False)
        cents = np.floor(group.column('value').to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, cents = uid[order], ts[order], eid[order], cents[order]
        seq = rank_in_sorted_key(uid)
        idx = np.arange(len(uid), dtype=np.int64)
        run_start = idx - (seq - 1)
        cum = np.cumsum(cents)
        base = cum - cents              # prefix sum BEFORE each row
        # window start: frame-1 rows back, clamped at the user's run start
        wstart = np.maximum(idx - (frame - 1), run_start)
        roll = cum - base[wstart]
        n_in = idx - wstart + 1
        return pa.table({
            'event_id': pa.array(eid, pa.int64()),
            'user_id': pa.array(uid, pa.int64()),
            'roll_cents': pa.array(roll, pa.int64()),
            'n_in_frame': pa.array(n_in, pa.int64()),
        })

    ds = read_table(sf_dir, 'events',
                    columns=['event_id', 'ts', 'user_id', 'value'])
    return (ds.map_batches(add_bucket, batch_format='pyarrow',
                           zero_copy_batch=True)
              .groupby('bucket').map_groups(rolling, batch_format='pyarrow'))


def events_latest_per_user(sf_dir, num_buckets=64):
    """LATEST-RECORD COMPACTION (the CDC / upsert shape): collapse the
    event stream to each user's single most recent event (max ts,
    event_id as the deterministic tie-break) — the operation that turns
    an append-only change log into a current-state snapshot.

    Two-tier argmax, same skeleton as grouped top-k: a per-block PARTIAL
    latest-per-user (lexsort desc + run-rank == 1; a block's winner is a
    superset of its contribution to the global winner) caps the exchange
    at ONE row per (user, block); one bucketed ``user_id & (nb-1)``
    groupby; the identical kernel per bucket picks the global winner.
    Payload columns (event_type, value) ride the exchange with the
    winner rows only — the log's full width never shuffles."""
    nb = num_buckets

    def latest_rows(batch: pa.Table, with_bucket) -> pa.Table:
        uid = batch.column('user_id').to_numpy(zero_copy_only=False)
        ts = batch.column('ts').cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = batch.column('event_id').to_numpy(zero_copy_only=False)
        order = np.lexsort((-eid, -ts, uid))
        keep = order[rank_in_sorted_key(uid[order]) == 1]
        out = batch.take(pa.array(keep, pa.int64()))
        if with_bucket:
            out = out.append_column(
                'bucket', pa.array(uid[keep] & (nb - 1), pa.int64()))
        return out

    def partial(batch: pa.Table) -> pa.Table:
        return latest_rows(batch, with_bucket=True)

    def bucket_final(group: pa.Table) -> pa.Table:
        return latest_rows(group.drop_columns(['bucket']), with_bucket=False)

    ds = read_table(sf_dir, 'events',
                    columns=['user_id', 'event_id', 'event_type', 'ts',
                             'value'])
    return ds.map_batches(partial, batch_format='pyarrow',
                          zero_copy_batch=True) \
             .groupby('bucket').map_groups(bucket_final,
                                           batch_format='pyarrow')


def events_rollup(sf_dir):
    """ROLLUP aggregate — (event_type, day) detail plus the event_type
    subtotals plus the grand total, all derived from ONE combiner pass:
    the map stage folds each block to (type, day, cnt, cents) partials;
    one tiny groupby folds them to the finest level; the coarser levels
    are re-aggregations of THAT result (≤ types × days rows), never of
    the raw stream.  ``lvl`` disambiguates the NULL padding exactly like
    SQL's GROUPING(): 0 = detail, 1 = per-type, 3 = grand total.

    Integer-cents totals keep the three fold tiers bit-identical to the
    oracle's single-pass sums."""
    DAY_US = 86_400_000_000

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column('ts').cast(pa.int64()).to_numpy(zero_copy_only=False)
        day = (ts // DAY_US) * DAY_US
        cents = np.floor(batch.column('value').to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        t = pa.table({'event_type': batch.column('event_type'),
                      'day': pa.array(day, pa.int64()),
                      'cents': pa.array(cents, pa.int64())})
        g = t.group_by(['event_type', 'day']).aggregate(
            [('cents', 'sum'), ('cents', 'count')])
        return g.rename_columns(['event_type', 'day', 'cents', 'cnt'])

    def fold(group: pa.Table) -> pa.Table:
        g = group.group_by(['event_type', 'day']).aggregate(
            [('cents', 'sum'), ('cnt', 'sum')])
        return g.rename_columns(['event_type', 'day', 'cents', 'cnt'])

    ds = read_table(sf_dir, 'events', columns=['event_type', 'ts', 'value'])
    detail_ds = ds.map_batches(partial, batch_format='pyarrow',
                               zero_copy_batch=True) \
                  .groupby(['event_type', 'day']).map_groups(
                      fold, batch_format='pyarrow')
    parts = [t for t in ray.get(detail_ds.to_arrow_refs()) if t.num_rows]
    if not parts:
        return pa.table({'event_type': pa.array([], pa.string()),
                         'day': pa.array([], pa.timestamp('us')),
                         'n_events': pa.array([], pa.int64()),
                         'sum_cents': pa.array([], pa.int64()),
                         'lvl': pa.array([], pa.int64())})
    detail = pa.concat_tables(parts, promote_options='none')

    def level(tbl, keys, lvl):
        if keys:
            g = tbl.group_by(keys).aggregate([('cents', 'sum'), ('cnt', 'sum')])
            g = g.rename_columns(keys + ['cents', 'cnt'])
        else:
            g = pa.table({
                'cents': pa.array([pc.sum(tbl.column('cents')).as_py() or 0],
                                  pa.int64()),
                'cnt': pa.array([pc.sum(tbl.column('cnt')).as_py() or 0],
                                pa.int64())})
        n = g.num_rows
        return pa.table({
            'event_type': (g.column('event_type') if 'event_type' in keys
                           else pa.nulls(n, pa.string())),
            'day': (g.column('day').cast(pa.timestamp('us')) if 'day' in keys
                    else pa.nulls(n, pa.timestamp('us'))),
            'n_events': g.column('cnt').cast(pa.int64()),
            'sum_cents': g.column('cents').cast(pa.int64()),
            'lvl': pa.array([lvl] * n, pa.int64()),
        })

    return pa.concat_tables([
        level(detail, ['event_type', 'day'], 0),
        level(detail, ['event_type'], 1),
        level(detail, [], 3),
    ], promote_options='none')


_FUNNEL_STAGES = ('view', 'click', 'purchase')


def events_funnel(sf_dir, stages=_FUNNEL_STAGES, num_buckets=64):
    """ORDERED-SEQUENCE FUNNEL: how many users performed stage 1, then
    stage 2 STRICTLY after it, then stage 3 strictly after that — the
    sequential-pattern-match shape (sessionized conversion funnels).

    Each user's whole history lives in one bucket (``user_id & (nb-1)``
    exchange of only the 3 relevant event types, 2 columns wide), so the
    stage recursion resolves per bucket in C++: stage k's earliest
    qualifying timestamp is a group_by-min of stage-k rows hash-joined to
    the stage-(k-1) frontier and filtered to ts > frontier.  Buckets emit
    one partial count row per stage; the driver folds ≤ nb × stages
    rows."""
    nb = num_buckets
    stage_arr = pa.array(stages)

    def add_bucket(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch.column('event_type'),
                                      value_set=stage_arr))
        b = batch.column('user_id').to_numpy(zero_copy_only=False) & (nb - 1)
        return batch.append_column('bucket', pa.array(b, pa.int64()))

    def funnel_bucket(group: pa.Table) -> pa.Table:
        etype = group.column('event_type')
        counts = []
        frontier = None   # pa.Table (user_id, t) of users alive at stage k
        for k, stage in enumerate(stages):
            rows = group.filter(pc.equal(etype, stage)) \
                        .select(['user_id', 'ts'])
            if k > 0:
                rows = rows.join(frontier, keys='user_id', join_type='inner')
                rows = rows.filter(pc.greater(rows.column('ts'),
                                              rows.column('t')))
                rows = rows.select(['user_id', 'ts'])
            g = rows.group_by('user_id').aggregate([('ts', 'min')])
            frontier = g.rename_columns(['user_id', 't'])
            counts.append(frontier.num_rows)
        return pa.table({
            'stage': pa.array(list(stages), pa.string()),
            'seq': pa.array(np.arange(1, len(stages) + 1), pa.int64()),
            'n_users': pa.array(counts, pa.int64()),
        })

    ds = read_table(sf_dir, 'events',
                    columns=['user_id', 'event_type', 'ts'])
    cand = ds.map_batches(add_bucket, batch_format='pyarrow',
                          zero_copy_batch=True) \
             .groupby('bucket').map_groups(funnel_bucket,
                                           batch_format='pyarrow')
    base = pa.table({'stage': pa.array(list(stages), pa.string()),
                     'seq': pa.array(np.arange(1, len(stages) + 1), pa.int64()),
                     'n_users': pa.array([0] * len(stages), pa.int64())})
    parts = [t for t in ray.get(cand.to_arrow_refs()) if t.num_rows]
    tbl = pa.concat_tables([base] + parts, promote_options='none')
    g = tbl.group_by(['stage', 'seq']).aggregate([('n_users', 'sum')])
    g = g.rename_columns(['stage', 'seq', 'n_users'])
    return pa.table({
        'stage': g.column('stage'),
        'seq': g.column('seq'),
        'n_users': g.column('n_users').cast(pa.int64()),
    })


def _user_type_set_op(sf_dir, types, keep_mask, num_buckets=64):
    """Shared kernel for SQL set operations (INTERSECT / EXCEPT) over
    per-type distinct user sets: each block folds its rows to ONE
    (user_id, presence-bitmask) partial per user (``np.bitwise_or.at``
    over a per-block ``np.unique``), one bucketed ``user_id & (nb-1)``
    exchange moves ≤ users-per-block rows, and each bucket OR-folds the
    masks and keeps users whose final mask equals ``keep_mask``.

    The full event stream never shuffles — the exchange carries only the
    distinct-user partials, the set-op analog of a combiner-first
    aggregate."""
    nb = num_buckets
    tarr = pa.array(types)

    def fold_masks(uid, bits):
        u, inv = np.unique(uid, return_inverse=True)
        m = np.zeros(len(u), np.int64)
        np.bitwise_or.at(m, inv, bits)
        return u, m

    def partial(batch: pa.Table) -> pa.Table:
        sel = batch.filter(pc.and_(
            pc.is_in(batch.column('event_type'), value_set=tarr),
            pc.greater_equal(batch.column('value'), SET_OP_MIN_VALUE)))
        uid = sel.column('user_id').to_numpy(zero_copy_only=False)
        et = sel.column('event_type').to_numpy(zero_copy_only=False)
        bits = np.zeros(len(uid), np.int64)
        for i, t in enumerate(types):
            bits |= np.where(et == t, np.int64(1 << i), np.int64(0))
        u, m = fold_masks(uid, bits)
        return pa.table({'user_id': pa.array(u, pa.int64()),
                         'mask': pa.array(m, pa.int64()),
                         'bucket': pa.array(u & (nb - 1), pa.int64())})

    def bucket_final(group: pa.Table) -> pa.Table:
        u, m = fold_masks(group.column('user_id').to_numpy(zero_copy_only=False),
                          group.column('mask').to_numpy(zero_copy_only=False))
        return pa.table({'user_id': pa.array(u[m == keep_mask], pa.int64())})

    ds = read_table(sf_dir, 'events',
                    columns=['user_id', 'event_type', 'value'])
    return ds.map_batches(partial, batch_format='pyarrow',
                          zero_copy_batch=True) \
             .groupby('bucket').map_groups(bucket_final,
                                           batch_format='pyarrow')


# High-value threshold shared verbatim with the oracle predicates (every
# user has every event type in the synthetic data, so the UNFILTERED
# per-type user sets are identical — the threshold makes the set algebra
# non-trivial at every sf).
SET_OP_MIN_VALUE = 95.0


def users_view_and_purchase(sf_dir, num_buckets=64):
    """SQL INTERSECT: distinct users with BOTH a high-value purchase
    and a high-value view event."""
    return _user_type_set_op(sf_dir, ('view', 'purchase'), keep_mask=3,
                             num_buckets=num_buckets)


def users_purchase_not_view(sf_dir, num_buckets=64):
    """SQL EXCEPT: distinct users with a high-value purchase but no
    high-value view event."""
    return _user_type_set_op(sf_dir, ('view', 'purchase'), keep_mask=2,
                             num_buckets=num_buckets)


def events_time_rolling(sf_dir, window_us=3_600_000_000, num_buckets=64):
    """TIME-RANGE rolling window: per event, the count and value total of
    the same user's events in the last hour (SQL ``RANGE BETWEEN
    INTERVAL 1 HOUR PRECEDING AND CURRENT ROW`` — includes ts peers on
    both edges, so the result is order-independent under ties, unlike a
    ROWS frame).  The ROWS-frame companion is :func:`events_user_rolling`.

    Vectorized per bucket with NO per-user Python loop: after the
    (user, ts) lexsort, per-user runs are remapped onto one global
    MONOTONE time axis (each run shifted past the previous run's end by
    more than the window), so two global ``np.searchsorted`` calls give
    every row's window bounds at once and a cumsum difference gives the
    sums."""
    nb = num_buckets

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = batch.column('user_id').to_numpy(zero_copy_only=False) & (nb - 1)
        return batch.append_column('bucket', pa.array(b, pa.int64()))

    def rolling(group: pa.Table) -> pa.Table:
        uid = group.column('user_id').to_numpy(zero_copy_only=False)
        ts = group.column('ts').cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = group.column('event_id').to_numpy(zero_copy_only=False)
        cents = np.floor(group.column('value').to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid, cents = uid[order], ts[order], eid[order], cents[order]
        n = len(uid)
        rs = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])   # run starts
        re = np.r_[rs[1:], n]                                   # run ends
        span = ts[re - 1] - ts[rs]
        # the monotone axis accumulates Σ(span + window + 1): guard the
        # int64 capacity (float estimate, generous 2^61 margin) and fall
        # back to per-run searchsorted — same results, no silent wrap
        if (float(np.sum(span, dtype=np.float64))
                + len(rs) * (window_us + 1.0)) < float(1 << 61):
            run_of = np.repeat(np.arange(len(rs), dtype=np.int64), re - rs)
            base = np.concatenate(([0], np.cumsum(span + window_us + 1)))[:-1]
            mono = ts - ts[rs][run_of] + base[run_of]
            lo = np.searchsorted(mono, mono - window_us, side='left')
            hi = np.searchsorted(mono, mono, side='right')
        else:
            lo = np.empty(n, np.int64)
            hi = np.empty(n, np.int64)
            for s, e in zip(rs, re):
                seg = ts[s:e]
                lo[s:e] = s + np.searchsorted(seg, seg - window_us, 'left')
                hi[s:e] = s + np.searchsorted(seg, seg, 'right')
        cum = np.concatenate(([0], np.cumsum(cents)))
        return pa.table({
            'event_id': pa.array(eid, pa.int64()),
            'user_id': pa.array(uid, pa.int64()),
            'n_win': pa.array(hi - lo, pa.int64()),
            'win_cents': pa.array(cum[hi] - cum[lo], pa.int64()),
        })

    ds = read_table(sf_dir, 'events',
                    columns=['event_id', 'ts', 'user_id', 'value'])
    return (ds.map_batches(add_bucket, batch_format='pyarrow',
                           zero_copy_batch=True)
              .groupby('bucket').map_groups(rolling, batch_format='pyarrow'))


def events_value_zscore(sf_dir):
    """AGGREGATE-THEN-ENRICH normalization: z-score every event's value
    against its event_type's population mean/std — the standardization
    pass a feature pipeline runs before training.

    Shape: the per-type moments (n, Σcents, Σcents²) fold combiner-first
    to a HANDFUL of rows (types are low-cardinality by schema), the tiny
    moment table broadcasts back via ``ray.put``, and the fact table gets
    its z column in a second shuffle-free map pass — the fact stream is
    read twice but never exchanged.  Integer moment sums make the two
    fold tiers exact; the z expression is evaluated in the IDENTICAL
    float op order as the oracle ((c - S/n) / sqrt(S2/n - (S/n)²),
    half-up r6) so hashes match bit-for-bit."""

    def moments(batch: pa.Table) -> pa.Table:
        cents = np.floor(batch.column('value').to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        t = pa.table({'event_type': batch.column('event_type'),
                      's': pa.array(cents, pa.int64()),
                      's2': pa.array(cents * cents, pa.int64()),
                      'n': pa.array(np.ones(len(cents), np.int64))})
        g = t.group_by('event_type').aggregate(
            [('s', 'sum'), ('s2', 'sum'), ('n', 'sum')])
        return g.rename_columns(['event_type', 's', 's2', 'n'])

    ds = read_table(sf_dir, 'events', columns=['event_type', 'value'])
    parts = [t for t in ray.get(
        ds.map_batches(moments, batch_format='pyarrow',
                       zero_copy_batch=True).to_arrow_refs()) if t.num_rows]
    mom = pa.concat_tables(parts, promote_options='none') \
            .group_by('event_type').aggregate(
                [('s', 'sum'), ('s2', 'sum'), ('n', 'sum')])
    lookup = {mom.column('event_type')[i].as_py():
              (mom.column('s_sum')[i].as_py(), mom.column('s2_sum')[i].as_py(),
               mom.column('n_sum')[i].as_py()) for i in range(mom.num_rows)}
    state_ref = ray.put(lookup)

    class ZScore(BroadcastLookup):
        def __call__(self, batch: pa.Table) -> pa.Table:
            cents = np.floor(batch.column('value').to_numpy(
                zero_copy_only=False) * 100.0 + 0.5)
            et = batch.column('event_type').to_numpy(zero_copy_only=False)
            types = list(self.state)
            code = pc.index_in(batch.column('event_type'),
                               value_set=pa.array(types)) \
                     .to_numpy(zero_copy_only=False)
            S = np.array([self.state[t][0] for t in types], np.float64)[code]
            S2 = np.array([self.state[t][1] for t in types], np.float64)[code]
            N = np.array([self.state[t][2] for t in types], np.float64)[code]
            mu = S / N
            # Zero-variance guard (float parity): DuckDB yields NULL for
            # any x/0, so a degenerate event_type (all values equal)
            # must emit null, not NaN.  Both sides compute the variance
            # with the identical float expression, so denom==0 happens
            # on both or neither; a negative variance (mathematically
            # impossible, same float path both sides) would error the
            # oracle loudly rather than diverge silently.
            with np.errstate(invalid='ignore', divide='ignore'):
                denom = np.sqrt(S2 / N - mu * mu)
                z = (cents - mu) / denom
            null_mask = ~(denom > 0)
            return pa.table({
                'event_id': batch.column('event_id'),
                'event_type': batch.column('event_type'),
                'z': pa.array(round_half_up(z, 6), pa.float64(),
                              mask=null_mask),
            })

    facts = read_table(sf_dir, 'events',
                       columns=['event_id', 'event_type', 'value'])
    return facts.map_batches(ZScore, fn_constructor_args=(state_ref,),
                             concurrency=pool(), batch_format='pyarrow',
                             zero_copy_batch=True)


def events_value_deciles(sf_dir, n_bins=10):
    """DISCRETIZATION / feature binning: assign every event the global
    decile of its value — the quantile-bucketing transform feature
    pipelines run before training (equal-frequency bins, exact
    percentile_disc edges).

    Shape: the (value, count) distinct-value combiner from the exact
    quantile tier folds the stream to one row per distinct value per
    block; the driver resolves the 9 edges from the merged histogram
    (same scale contract as events_value_quantiles — continuous data at
    100 TB needs the histogram tier) and the second pass assigns bins with
    one vectorized searchsorted, shuffle-free.  ``decile`` = 1 + number
    of edges strictly below the value — identical to the oracle's CASE
    ladder."""
    qs = [i / n_bins for i in range(1, n_bins)]

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.select(['value']).group_by('value') \
                 .aggregate([([], 'count_all')])
        return g.rename_columns(['value', 'cnt'])

    ds = read_table(sf_dir, 'events', columns=['value'])
    parts = [t for t in ray.get(
        ds.map_batches(partial, batch_format='pyarrow',
                       zero_copy_batch=True).to_arrow_refs()) if t.num_rows]
    hist = pa.concat_tables(parts, promote_options='none') \
             .group_by('value').aggregate([('cnt', 'sum')])
    vals = hist.column('value').to_numpy(zero_copy_only=False)
    cnts = hist.column('cnt_sum').to_numpy(zero_copy_only=False)
    order = np.argsort(vals, kind='mergesort')
    vals, cnts = vals[order], cnts[order]
    cum = np.cumsum(cnts)
    n = int(cum[-1]) if len(cum) else 0
    edges = np.array([vals[np.searchsorted(cum, int(np.ceil(q * n)),
                                           side='left')]
                      for q in qs], np.float64) if n else np.empty(0)

    def assign(batch: pa.Table) -> pa.Table:
        v = batch.column('value').to_numpy(zero_copy_only=False)
        d = np.searchsorted(edges, v, side='left') + 1   # edges < v
        return pa.table({
            'event_id': batch.column('event_id'),
            'value': batch.column('value'),
            'decile': pa.array(d.astype(np.int64), pa.int64()),
        })

    facts = read_table(sf_dir, 'events', columns=['event_id', 'value'])
    return facts.map_batches(assign, batch_format='pyarrow',
                             zero_copy_batch=True)


def events_hour_value_corr(sf_dir):
    """TWO-VARIABLE statistics: Pearson correlation between hour-of-day
    and event value, per event type — the quick "is there a daily
    pattern" screen.  All five moment sums (Σx, Σy, Σx², Σy², Σxy) are
    INTEGER partials (hour 0-23, value in cents), folded combiner-first
    per block then once per type, so the two fold tiers are exact; the
    correlation is evaluated in the oracle's exact float op order."""

    def moments(batch: pa.Table) -> pa.Table:
        ts = batch.column('ts').cast(pa.int64()).to_numpy(zero_copy_only=False)
        x = (ts // 3_600_000_000) % 24
        y = np.floor(batch.column('value').to_numpy(
            zero_copy_only=False) * 100.0 + 0.5).astype(np.int64)
        t = pa.table({'event_type': batch.column('event_type'),
                      'n': pa.array(np.ones(len(x), np.int64)),
                      'sx': pa.array(x, pa.int64()),
                      'sy': pa.array(y, pa.int64()),
                      'sxx': pa.array(x * x, pa.int64()),
                      'syy': pa.array(y * y, pa.int64()),
                      'sxy': pa.array(x * y, pa.int64())})
        g = t.group_by('event_type').aggregate(
            [(c, 'sum') for c in ('n', 'sx', 'sy', 'sxx', 'syy', 'sxy')])
        return g.rename_columns(['event_type', 'n', 'sx', 'sy', 'sxx',
                                 'syy', 'sxy'])

    ds = read_table(sf_dir, 'events', columns=['event_type', 'ts', 'value'])
    parts = [t for t in ray.get(
        ds.map_batches(moments, batch_format='pyarrow',
                       zero_copy_batch=True).to_arrow_refs()) if t.num_rows]
    if not parts:
        return pa.table({'event_type': pa.array([], pa.string()),
                         'corr_hv': pa.array([], pa.float64()),
                         'n_events': pa.array([], pa.int64())})
    m = pa.concat_tables(parts, promote_options='none') \
          .group_by('event_type').aggregate(
              [(c, 'sum') for c in ('n', 'sx', 'sy', 'sxx', 'syy', 'sxy')])
    nf = m.column('n_sum').to_numpy(zero_copy_only=False).astype(np.float64)
    sx = m.column('sx_sum').to_numpy(zero_copy_only=False).astype(np.float64)
    sy = m.column('sy_sum').to_numpy(zero_copy_only=False).astype(np.float64)
    sxx = m.column('sxx_sum').to_numpy(zero_copy_only=False).astype(np.float64)
    syy = m.column('syy_sum').to_numpy(zero_copy_only=False).astype(np.float64)
    sxy = m.column('sxy_sum').to_numpy(zero_copy_only=False).astype(np.float64)
    # Zero-variance guard: DuckDB yields NULL for x/0, so a constant-x
    # or constant-y event_type must emit null corr, not NaN (same float
    # expression both sides, so denom==0 happens on both or neither).
    with np.errstate(invalid='ignore', divide='ignore'):
        denom = (np.sqrt(nf * sxx - sx * sx)
                 * np.sqrt(nf * syy - sy * sy))
        corr = (nf * sxy - sx * sy) / denom
    return pa.table({
        'event_type': m.column('event_type'),
        'corr_hv': pa.array(round_half_up(corr, 6), pa.float64(),
                            mask=~(denom > 0)),
        'n_events': m.column('n_sum').cast(pa.int64()),
    })


def events_debounced(sf_dir, window_us=300_000_000, num_buckets=64):
    """STREAM DEBOUNCE — the event-stream cleaning op: keep an event only
    if the same user's previous event OF THE SAME TYPE is more than
    ``window_us`` (5 min) older (drops double-fires / retry storms before
    sessionization).

    One bucketed ``user_id & (nb-1)`` exchange co-locates each user's
    history; per bucket a single lexsort over (user, type, ts, event_id)
    plus one vectorized diff marks run starts and over-gap rows — no
    per-user or per-type loop.  Matches the SQL ``lag() OVER (PARTITION
    BY user_id, event_type ORDER BY ts, event_id)`` definition exactly,
    including the tie order."""
    nb = num_buckets

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = batch.column('user_id').to_numpy(zero_copy_only=False) & (nb - 1)
        return batch.append_column('bucket', pa.array(b, pa.int64()))

    def debounce(group: pa.Table) -> pa.Table:
        uid = group.column('user_id').to_numpy(zero_copy_only=False)
        et = group.column('event_type').to_numpy(zero_copy_only=False)
        ts = group.column('ts').cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = group.column('event_id').to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, et, uid))
        u, e, t = uid[order], et[order], ts[order]
        new_run = np.r_[True, (u[1:] != u[:-1]) | (e[1:] != e[:-1])]
        gap_ok = np.r_[True, (t[1:] - t[:-1]) > window_us]
        keep = order[new_run | gap_ok]
        out = group.take(pa.array(np.sort(keep), pa.int64()))
        return out.select(['event_id', 'user_id', 'event_type', 'ts'])

    ds = read_table(sf_dir, 'events',
                    columns=['event_id', 'user_id', 'event_type', 'ts'])
    return (ds.map_batches(add_bucket, batch_format='pyarrow',
                           zero_copy_batch=True)
              .groupby('bucket').map_groups(debounce, batch_format='pyarrow'))


def user_event_paths(sf_dir, max_steps=10, num_buckets=64):
    """PATH ASSEMBLY (clickstream analysis): per user, the ordered '>'
    -joined sequence of their first ``max_steps`` event types — the
    sequence column funnel/path tools consume.

    One bucketed exchange of 3 columns; per bucket one lexsort, a
    run-rank cut to the first ``max_steps`` rows per user, and an Arrow
    ``binary_join`` over a ListArray built straight from the run offsets
    — the string assembly never loops over users."""
    nb = num_buckets

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = batch.column('user_id').to_numpy(zero_copy_only=False) & (nb - 1)
        return pa.table({
            'user_id': batch.column('user_id'),
            'event_type': batch.column('event_type'),
            'ts': batch.column('ts'),
            'event_id': batch.column('event_id'),
            'bucket': pa.array(b, pa.int64()),
        })

    def assemble(group: pa.Table) -> pa.Table:
        uid = group.column('user_id').to_numpy(zero_copy_only=False)
        ts = group.column('ts').cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = group.column('event_id').to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u = uid[order]
        seq = rank_in_sorted_key(u)
        cut = order[seq <= max_steps]
        u = uid[cut]
        types = group.column('event_type').take(pa.array(cut, pa.int64()))
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        # int64 offsets through pa.array(..., pa.int32()): an offset
        # beyond int32 RAISES instead of wrapping (np.astype would wrap
        # silently); per-bucket row counts keep offsets far below 2^31.
        offsets = np.r_[starts, len(u)].astype(np.int64)
        lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                         types.combine_chunks())
        path = pc.binary_join(lists, '>')
        n_steps = np.diff(offsets).astype(np.int64)
        return pa.table({
            'user_id': pa.array(u[starts], pa.int64()),
            'path': path,
            'n_steps': pa.array(n_steps, pa.int64()),
        })

    ds = read_table(sf_dir, 'events',
                    columns=['event_id', 'user_id', 'event_type', 'ts'])
    return (ds.map_batches(add_bucket, batch_format='pyarrow',
                           zero_copy_batch=True)
              .groupby('bucket').map_groups(assemble,
                                            batch_format='pyarrow'))


# ---------------------------------------------------------------------------
# Exponential time-decay engagement score (exact binary fixed point)


DECAY_WINDOW_DAYS = 20
_US_PER_DAY = 86_400_000_000


def user_decay_score(sf_dir, window_days=DECAY_WINDOW_DAYS, num_buckets=64):
    """Per-user engagement score with EXPONENTIAL TIME DECAY — weight
    halves per day of age: ``score = Σ cents(value) · 2^(W − age_days)``
    over events at most ``window_days`` old (older events carry zero
    weight — the decay horizon; at 20 days the dropped tail weighs
    < 2^-20 of a same-day event).

    EXACT-parity design: ages are integer days
    (``epoch_us // us_per_day``, positive operands so numpy floor and
    DuckDB truncating ``//`` agree), values go through the shared
    cents convention (``floor(v·100 + 0.5)``,
    cf. ``events_user_running``), and the decay multiply is a BINARY
    SHIFT — the whole score is an int64 sum, order-independent, no
    float expression to drift.  Headroom: cents ≤ ~5·10^4, shift ≤ 2^20,
    so ~1.7·10^8 in-window events per user fit int64 — beyond any real
    per-user stream.

    Scale shape: pass 0 folds one per-block max-day row (tiny; at 100 TB
    the max event date is typically known from partition metadata — the
    read is ts-column-only either way); pass 1 is a per-block per-user
    partial-sum combiner → md5-free power-of-two user bucket → per-bucket
    C++ sum fold.  One bucketed exchange of one row per (block, user)."""
    w = int(window_days)
    nb = num_buckets

    def block_max(batch: pa.Table) -> pa.Table:
        us = batch.column('ts').cast(pa.int64()).to_numpy()
        return pa.table({'d': pa.array([int(us.max()) // _US_PER_DAY]
                                       if len(us) else [], pa.int64())})

    days = read_table(sf_dir, 'events', columns=['ts']) \
        .map_batches(block_max, batch_format='pyarrow',
                     zero_copy_batch=True).take_all()
    max_day = max(r['d'] for r in days)

    def partial(batch: pa.Table) -> pa.Table:
        us = batch.column('ts').cast(pa.int64()).to_numpy()
        age = max_day - us // _US_PER_DAY
        keep = age <= w
        uid = batch.column('user_id').to_numpy()[keep]
        cents = np.floor(
            batch.column('value').to_numpy() * 100 + 0.5).astype(
                np.int64)[keep]
        contrib = cents << (w - age[keep])
        g = pa.table({'user_id': pa.array(uid, pa.int64()),
                      'c': pa.array(contrib, pa.int64())}) \
              .group_by('user_id') \
              .aggregate([('c', 'sum'), ([], 'count_all')]) \
              .rename_columns(['user_id', 'c', 'n'])
        ids = g.column('user_id').to_numpy(zero_copy_only=False)
        return g.append_column('bucket',
                               pa.array(ids & (nb - 1), pa.int64()))

    def fold(group: pa.Table) -> pa.Table:
        g = group.group_by('user_id') \
                 .aggregate([('c', 'sum'), ('n', 'sum')])
        g = g.rename_columns(['user_id', 'decay_score', 'n_recent'])
        return pa.table({
            'user_id': g.column('user_id'),
            'decay_score': g.column('decay_score').cast(pa.int64()),
            'n_recent': g.column('n_recent').cast(pa.int64()),
        }).sort_by('user_id')

    return read_table(sf_dir, 'events',
                      columns=['user_id', 'ts', 'value']) \
        .map_batches(partial, batch_format='pyarrow',
                     zero_copy_batch=True) \
        .groupby('bucket').map_groups(fold, batch_format='pyarrow')


DECAY_SCORE_SQL = """
WITH md AS (SELECT max(epoch_us(ts) // {us_day}) AS m FROM events),
e AS (SELECT user_id,
             CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
             (SELECT m FROM md) - epoch_us(ts) // {us_day} AS age
      FROM events)
SELECT user_id,
       CAST(SUM(cents << CAST({w} - age AS INT)) AS BIGINT) AS decay_score,
       count(*)::BIGINT AS n_recent
FROM e WHERE age <= {w} GROUP BY user_id
""".format(us_day=_US_PER_DAY, w=DECAY_WINDOW_DAYS)


# ---------------------------------------------------------------------------
# Key-skew audit (the diagnosis a partitioning decision runs on)


def events_user_gini(sf_dir, num_buckets=64):
    """Per-event-type KEY-SKEW AUDIT over the ``user_id`` distribution:
    user count, event count, the hottest user's share, and the Gini
    coefficient of per-user event counts — the numbers that decide
    whether a keyed exchange needs salting BEFORE it runs (a Gini near
    1 / top share in the percent range means a hot key will serialize
    one bucket; cf. the salting/chunked-compaction contracts in
    SCALE.md).

    Parity design: Gini over sorted counts is
    ``(2·Σ i·c_i)/(n·Σc) − (n+1)/n`` with c ascending, 1-based rank i.
    Both Σ are int64 (order of equal counts within a tie run cannot
    change Σ i·c_i — the run's ranks sum the same either way), so the
    only float arithmetic is the final expression, written with
    IDENTICAL parenthesization on both sides and r6-rounded.

    Scale shape: per-block (type, user) count combiner → md5-free
    power-of-two user bucket → per-bucket exact count fold → ONE
    re-exchange by type whose payload is one row per (type, user) —
    the audit's state is the distinct-user count, the same contract as
    exact windowed distinct."""
    nb = num_buckets

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(['event_type', 'user_id']) \
                 .aggregate([([], 'count_all')]) \
                 .rename_columns(['event_type', 'user_id', 'cnt'])
        ids = g.column('user_id').to_numpy(zero_copy_only=False)
        return g.append_column('bucket',
                               pa.array(ids & (nb - 1), pa.int64()))

    def count_fold(group: pa.Table) -> pa.Table:
        g = group.group_by(['event_type', 'user_id']) \
                 .aggregate([('cnt', 'sum')])
        return g.rename_columns(['event_type', 'user_id', 'cnt'])

    def gini_fold(group: pa.Table) -> pa.Table:
        c = np.sort(group.column('cnt').to_numpy(zero_copy_only=False)
                    .astype(np.int64))
        n = len(c)
        s = int(c.sum())
        s1 = int((np.arange(1, n + 1, dtype=np.int64) * c).sum())
        gini = (2.0 * float(s1)) / (float(n) * float(s)) \
            - (float(n) + 1.0) / float(n)
        top = float(c[-1]) / float(s)
        return pa.table({
            'event_type': group.column('event_type').slice(0, 1),
            'n_users': pa.array([n], pa.int64()),
            'n_events': pa.array([s], pa.int64()),
            'top_user_share': pa.array(round_half_up([top], 6),
                                       pa.float64()),
            'gini': pa.array(round_half_up([gini], 6), pa.float64()),
        })

    return read_table(sf_dir, 'events', columns=['event_type', 'user_id']) \
        .map_batches(partial, batch_format='pyarrow', zero_copy_batch=True) \
        .groupby('bucket').map_groups(count_fold, batch_format='pyarrow') \
        .groupby('event_type').map_groups(gini_fold, batch_format='pyarrow')


USER_GINI_SQL = """
WITH uc AS (
  SELECT event_type, user_id, count(*)::BIGINT AS cnt
  FROM events GROUP BY 1, 2
), rk AS (
  SELECT event_type, cnt,
         row_number() OVER (PARTITION BY event_type ORDER BY cnt) AS i
  FROM uc
), agg AS (
  SELECT event_type,
         count(*)::BIGINT AS n_users,
         sum(cnt)::BIGINT AS n_events,
         max(cnt)::BIGINT AS max_cnt,
         sum(i * cnt)::BIGINT AS s1
  FROM rk GROUP BY event_type
)
SELECT event_type, n_users, n_events,
       floor(CAST(max_cnt AS DOUBLE) / CAST(n_events AS DOUBLE)
             * 1000000 + 0.5) / 1000000 AS top_user_share,
       floor(((2.0 * CAST(s1 AS DOUBLE))
              / (CAST(n_users AS DOUBLE) * CAST(n_events AS DOUBLE))
              - (CAST(n_users AS DOUBLE) + 1.0) / CAST(n_users AS DOUBLE))
             * 1000000 + 0.5) / 1000000 AS gini
FROM agg
"""


# ---------------------------------------------------------------------------
# Windowed conversion funnel (time-bounded sequential pattern match)


FUNNEL_WINDOW_US = 24 * 3600 * 1000000


def events_funnel_windowed(sf_dir, stages=_FUNNEL_STAGES,
                           window_us=FUNNEL_WINDOW_US, num_buckets=64):
    """TIME-BOUNDED funnel: like :func:`events_funnel` but each stage
    must land within ``window_us`` of the PREVIOUS stage's frontier
    (greedy earliest-match, the standard analytics-tool semantics:
    frontier_k = min ts of stage-k events with
    frontier_{k-1} < ts ≤ frontier_{k-1} + W).  The unbounded funnel
    answers "ever converted"; this answers "converted within a day per
    step" — the one a retention/conversion report actually wants.

    Same distributed shape as the unbounded funnel (one 2-column
    bucketed exchange of the relevant event types, per-bucket C++ stage
    recursion, driver folds ≤ nb × stages count rows); the extra window
    bound is one more vectorized filter per stage.  ``conversion`` =
    n_users / n_users(stage 1), a single exact int64→float64 division."""
    nb = num_buckets
    stage_arr = pa.array(stages)

    def add_bucket(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch.column('event_type'),
                                      value_set=stage_arr))
        b = batch.column('user_id').to_numpy(zero_copy_only=False) & (nb - 1)
        return batch.append_column('bucket', pa.array(b, pa.int64()))

    def funnel_bucket(group: pa.Table) -> pa.Table:
        etype = group.column('event_type')
        us = group.column('ts').cast(pa.int64())
        group = group.append_column('us', us)
        counts = []
        frontier = None
        for k, stage in enumerate(stages):
            rows = group.filter(pc.equal(etype, stage)) \
                        .select(['user_id', 'us'])
            if k > 0:
                rows = rows.join(frontier, keys='user_id',
                                 join_type='inner')
                ok = pc.and_(
                    pc.greater(rows.column('us'), rows.column('t')),
                    pc.less_equal(rows.column('us'),
                                  pc.add(rows.column('t'),
                                         np.int64(window_us))))
                rows = rows.filter(ok).select(['user_id', 'us'])
            g = rows.group_by('user_id').aggregate([('us', 'min')])
            frontier = g.rename_columns(['user_id', 't'])
            counts.append(frontier.num_rows)
        return pa.table({
            'stage': pa.array(list(stages), pa.string()),
            'stage_idx': pa.array(np.arange(1, len(stages) + 1), pa.int64()),
            'n_users': pa.array(counts, pa.int64()),
        })

    ds = read_table(sf_dir, 'events',
                    columns=['user_id', 'event_type', 'ts'])
    cand = ds.map_batches(add_bucket, batch_format='pyarrow',
                          zero_copy_batch=True) \
             .groupby('bucket').map_groups(funnel_bucket,
                                           batch_format='pyarrow')
    base = pa.table({
        'stage': pa.array(list(stages), pa.string()),
        'stage_idx': pa.array(np.arange(1, len(stages) + 1), pa.int64()),
        'n_users': pa.array([0] * len(stages), pa.int64())})
    parts = [t for t in ray.get(cand.to_arrow_refs()) if t.num_rows]
    tbl = pa.concat_tables([base] + parts, promote_options='none')
    g = tbl.group_by(['stage', 'stage_idx']).aggregate([('n_users', 'sum')])
    g = g.rename_columns(['stage', 'stage_idx', 'n_users']) \
         .sort_by('stage_idx')
    n = g.column('n_users').to_numpy(zero_copy_only=False).astype(np.int64)
    n1 = np.float64(n[0]) if len(n) and n[0] else np.float64(1)
    return pa.table({
        'stage_idx': g.column('stage_idx'),
        'stage': g.column('stage'),
        'n_users': g.column('n_users').cast(pa.int64()),
        'conversion': pa.array(n.astype(np.float64) / n1, pa.float64()),
    })


def funnel_windowed_oracle_sql(stages=_FUNNEL_STAGES,
                               window_us=FUNNEL_WINDOW_US):
    """DuckDB re-derivation of :func:`events_funnel_windowed` — the
    greedy stage recursion unrolled as chained CTEs."""
    cte = ["s1 AS (SELECT user_id, min(epoch_us(ts)) AS f FROM events "
           "WHERE event_type = '%s' GROUP BY user_id)" % stages[0]]
    for k in range(1, len(stages)):
        cte.append(
            "s%d AS (SELECT e.user_id, min(epoch_us(e.ts)) AS f "
            "FROM events e JOIN s%d p ON p.user_id = e.user_id "
            "WHERE e.event_type = '%s' AND epoch_us(e.ts) > p.f "
            "AND epoch_us(e.ts) <= p.f + %d GROUP BY e.user_id)"
            % (k + 1, k, stages[k], window_us))
    unions = "\nUNION ALL\n".join(
        "SELECT %d AS stage_idx, '%s' AS stage, count(*)::BIGINT AS n_users "
        "FROM s%d" % (k + 1, s, k + 1) for k, s in enumerate(stages))
    return ("WITH " + ",\n".join(cte) + ", c AS (\n" + unions + "\n)\n"
            "SELECT stage_idx::BIGINT AS stage_idx, stage, n_users,\n"
            "       CAST(n_users AS DOUBLE) / CAST((SELECT n_users FROM c "
            "WHERE stage_idx = 1) AS DOUBLE) AS conversion\n"
            "FROM c ORDER BY stage_idx")


# ---------------------------------------------------------------------------
# Rolling distinct actives (DAU / WAU / stickiness)


def events_dau_wau(sf_dir, window_days=7, num_buckets=64):
    """Daily / weekly active users and stickiness (DAU/WAU) — the
    rolling COUNT-DISTINCT product metric.  Distinct counts don't sum
    across windows, so the exact shape is: global-distinct (user, day)
    rows → each expands to the ``window_days`` window days it makes the
    user active in → per-user re-distinct → count per window day.

    Scale shape: per-block distinct (user, day) combiner → one bucketed
    user exchange (a user's activity days co-locate); the ×7 expansion
    and the per-(user, window-day) re-distinct both resolve INSIDE the
    bucket (a user lives in one bucket, so per-bucket day counts sum
    globally); buckets emit (day, dau, wau) partial rows and the driver
    folds ≤ buckets × days tiny cells.  stickiness = dau/wau, one exact
    int64→float64 division.  State per bucket is bounded by
    users × active-days — the same contract as exact windowed distinct."""
    nb = num_buckets
    w = int(window_days)

    def partial(batch: pa.Table) -> pa.Table:
        day = batch.column('ts').cast(pa.int64()).to_numpy() // _US_PER_DAY
        g = pa.table({'u': batch.column('user_id'),
                      'd': pa.array(day, pa.int64())}) \
              .group_by(['u', 'd']).aggregate([])
        ids = g.column('u').to_numpy(zero_copy_only=False)
        return g.append_column('bucket',
                               pa.array(ids & (nb - 1), pa.int64()))

    def bucket_fold(group: pa.Table) -> pa.Table:
        g = group.group_by(['u', 'd']).aggregate([])
        u = g.column('u').to_numpy(zero_copy_only=False)
        d = g.column('d').to_numpy(zero_copy_only=False)
        dau = pa.table({'d': pa.array(d)}).group_by('d') \
                .aggregate([([], 'count_all')])
        wu = np.concatenate([u] * w)
        wd = np.concatenate([d + off for off in range(w)])
        wg = pa.table({'u': pa.array(wu), 'd': pa.array(wd)}) \
               .group_by(['u', 'd']).aggregate([])
        wau = wg.group_by('d').aggregate([([], 'count_all')])
        j = wau.rename_columns(['d', 'wau']).join(
            dau.rename_columns(['d', 'dau']), keys='d',
            join_type='left outer')
        import pyarrow.compute as pc_
        return pa.table({
            'day_num': j.column('d').cast(pa.int64()),
            'dau': pc_.coalesce(j.column('dau'),
                                pa.scalar(0)).cast(pa.int64()),
            'wau': j.column('wau').cast(pa.int64()),
        })

    cand = read_table(sf_dir, 'events', columns=['user_id', 'ts']) \
        .map_batches(partial, batch_format='pyarrow', zero_copy_batch=True) \
        .groupby('bucket').map_groups(bucket_fold, batch_format='pyarrow')
    parts = [t for t in ray.get(cand.to_arrow_refs()) if t.num_rows]
    tbl = pa.concat_tables(parts).combine_chunks()
    g = tbl.group_by('day_num').aggregate([('dau', 'sum'), ('wau', 'sum')])
    g = g.rename_columns(['day_num', 'dau', 'wau']).sort_by('day_num')
    g = g.filter(pc.greater(g.column('dau'), 0))
    dau = g.column('dau').to_numpy(zero_copy_only=False).astype(np.int64)
    wau = g.column('wau').to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        'day_num': g.column('day_num').cast(pa.int64()),
        'dau': pa.array(dau, pa.int64()),
        'wau': pa.array(wau, pa.int64()),
        'stickiness': pa.array(dau.astype(np.float64)
                               / wau.astype(np.float64), pa.float64()),
    })


DAU_WAU_SQL = """
WITH ud AS (SELECT DISTINCT user_id AS u, epoch_us(ts) // {us_day} AS d
            FROM events),
dau AS (SELECT d, count(*)::BIGINT AS dau FROM ud GROUP BY d),
w AS (SELECT DISTINCT u, d + off.o AS d
      FROM ud, (SELECT unnest(generate_series(0, {wm1})) AS o) off),
wau AS (SELECT d, count(*)::BIGINT AS wau FROM w GROUP BY d)
SELECT dau.d AS day_num, dau.dau, wau.wau,
       CAST(dau.dau AS DOUBLE) / CAST(wau.wau AS DOUBLE) AS stickiness
FROM dau JOIN wau ON wau.d = dau.d
""".format(us_day=_US_PER_DAY, wm1=6)


def events_anomaly_days(sf_dir, z=2):
    """ANOMALOUS-DAY detection per event_type: flag days whose event
    count deviates from the type's mean daily count by more than ``z``
    population standard deviations — the volume-spike screen a pipeline
    owner runs over ingestion telemetry before trusting a day's data.

    The flag is INTEGER-EXACT: with per-day counts c_i, N days,
    S = Σc, S2 = Σc², the test |c·N − S| / N > z·σ (σ² = (N·S2 − S²)/N²)
    squares to  (c·N − S)² > z²·(N·S2 − S²)  — every operand an integer,
    so there is NO float expression to drift against the oracle (which
    evaluates the same inequality in HUGEINT).  Ties (exact equality)
    are not anomalies on both sides.

    100 TB shape: per-block combiner folds to (event_type, day) counts —
    the exchange carries types × days rows per block, never events; the
    per-type final touches one row per day (Python-int arithmetic there
    is exact at any corpus size where c·N exceeds int64, and the day
    list per type is calendar-bounded)."""
    zz = int(z) * int(z)

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column('ts').to_numpy(zero_copy_only=False) \
                  .view(np.int64)
        t = pa.table({
            'event_type': batch.column('event_type'),
            'day': pa.array(ts // _US_PER_DAY, pa.int64()),
        })
        g = t.group_by(['event_type', 'day']).aggregate([([], 'count_all')])
        return g.rename_columns(['event_type', 'day', 'n'])

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by(['event_type', 'day']).aggregate([('n', 'sum')])
        days = g.column('day').to_numpy(zero_copy_only=False)
        cnt = g.column('n_sum').to_numpy(zero_copy_only=False)
        N = len(cnt)
        S = int(cnt.sum())
        S2 = sum(int(c) * int(c) for c in cnt)
        rhs = zz * (N * S2 - S * S)
        flags = [(int(c) * N - S) ** 2 > rhs for c in cnt]
        return pa.table({
            'event_type': g.column('event_type'),
            'day': pa.array(days, pa.int64()),
            'n': pa.array(cnt, pa.int64()).cast(pa.int64()),
            'is_anomaly': pa.array(flags, pa.bool_()),
        })

    ds = read_table(sf_dir, 'events', columns=['event_type', 'ts'])
    return ds.map_batches(partial, batch_format='pyarrow',
                          zero_copy_batch=True) \
             .groupby('event_type').map_groups(final,
                                               batch_format='pyarrow')


def events_anomaly_oracle_sql(z=2):
    """Oracle as a FUNCTION of the z knob (zz = z²) so a non-default z
    in :func:`events_anomaly_days` stays in lockstep with the
    registered SQL instead of silently diverging (the kmeans/keep_best
    oracles' parameterization discipline)."""
    return """
WITH d AS (
  SELECT event_type, epoch_us(ts) // {us_day} AS day,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
), s AS (
  SELECT event_type, count(*)::HUGEINT AS nd, sum(n::HUGEINT) AS sm,
         sum(n::HUGEINT * n::HUGEINT) AS s2
  FROM d GROUP BY 1
)
SELECT d.event_type, d.day::BIGINT AS day, d.n,
       (d.n::HUGEINT * s.nd - s.sm) * (d.n::HUGEINT * s.nd - s.sm)
         > {zz}::HUGEINT * (s.nd * s.s2 - s.sm * s.sm) AS is_anomaly
FROM d JOIN s USING (event_type)
""".format(us_day=_US_PER_DAY, zz=int(z) * int(z))


EVENTS_ANOMALY_SQL = events_anomaly_oracle_sql()


def events_late_arrivals(sf_dir, range_size=4096, max_rbuckets=1 << 20):
    """LATE-ARRIVAL accounting in ingestion order: an event is LATE if
    its timestamp precedes the maximum timestamp among all events with a
    smaller event_id (event_id = arrival order) — the watermark
    diagnosis a streaming pipeline runs to size its allowed-lateness
    window; late_by_us is how far behind the frontier it arrived.

    A DISTRIBUTED ORDERED PREFIX-SCAN with the MAX
    monoid: per-range-bucket combiner maxes → driver exclusive
    running-max over the bounded, loudly-guarded bucket list →
    per-bucket finalize (sort by event_id, vectorized
    ``np.maximum.accumulate``).  All comparisons are int64 microsecond
    arithmetic — nothing floats."""
    import ray as _ray

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column('event_id')
        ts = batch.column('ts').to_numpy(zero_copy_only=False) \
                  .view(np.int64)
        return pa.table({
            'event_id': ids,
            'ts_us': pa.array(ts, pa.int64()),
            'rbucket': pc.divide(ids, pa.scalar(range_size, pa.int64())),
        })

    def bucket_maxes(batch: pa.Table) -> pa.Table:
        g = batch.select(['rbucket', 'ts_us']).group_by('rbucket') \
                 .aggregate([('ts_us', 'max')])
        return g.rename_columns(['rbucket', 'ts_max'])

    base = read_table(sf_dir, 'events', columns=['event_id', 'ts']) \
        .map_batches(partial, batch_format='pyarrow', zero_copy_batch=True)

    parts = [t for t in _ray.get(
        base.map_batches(bucket_maxes, batch_format='pyarrow')
            .groupby('rbucket')
            .map_groups(lambda g: g.group_by('rbucket')
                        .aggregate([('ts_max', 'max')])
                        .rename_columns(['rbucket', 'ts_max']),
                        batch_format='pyarrow')
            .to_arrow_refs()) if t.num_rows]
    if parts:
        totals = pa.concat_tables(parts)
    else:
        totals = pa.table({'rbucket': pa.array([], pa.int64()),
                           'ts_max': pa.array([], pa.int64())})
    if totals.num_rows > max_rbuckets:
        raise RuntimeError(
            'events_late_arrivals: %d range buckets exceeds '
            'max_rbuckets=%d; raise range_size' % (totals.num_rows,
                                                   max_rbuckets))
    rb = totals.column('rbucket').to_numpy(zero_copy_only=False)
    tm = totals.column('ts_max').to_numpy(zero_copy_only=False)
    order = np.argsort(rb, kind='stable')
    rb, tm = rb[order], tm[order]
    # exclusive running max over bucket maxes; int64-min = empty prefix
    lo = np.int64(np.iinfo(np.int64).min)
    prefix = {}
    acc = lo
    for b, m in zip(rb, tm):
        prefix[int(b)] = acc
        acc = max(acc, int(m))
    prefix_ref = _ray.put(prefix)

    def finalize(group: pa.Table) -> pa.Table:
        ids = group.column('event_id').to_numpy(zero_copy_only=False)
        ts = group.column('ts_us').to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind='stable')
        ids, ts = ids[order], ts[order]
        off = _ray.get(prefix_ref)[int(ids[0]) // range_size] if len(ids) \
            else lo
        run = np.maximum.accumulate(np.r_[off, ts[:-1]])
        run = np.maximum(run, off)
        late = ts < run
        late_by = np.where(late, run - ts, 0).astype(np.int64)
        return pa.table({
            'event_id': pa.array(ids, pa.int64()),
            'ts_us': pa.array(ts, pa.int64()),
            'is_late': pa.array(late, pa.bool_()),
            'late_by_us': pa.array(late_by, pa.int64()),
        })

    return base.groupby('rbucket').map_groups(finalize,
                                              batch_format='pyarrow')


EVENTS_LATE_SQL = """
WITH e AS (
  SELECT event_id, epoch_us(ts)::BIGINT AS ts_us FROM events
), w AS (
  SELECT event_id, ts_us,
         max(ts_us) OVER (ORDER BY event_id
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND 1 PRECEDING) AS frontier
  FROM e
)
SELECT event_id, ts_us,
       coalesce(ts_us < frontier, FALSE) AS is_late,
       (CASE WHEN ts_us < frontier THEN frontier - ts_us
             ELSE 0 END)::BIGINT AS late_by_us
FROM w
"""


def session_durations(sf_dir, gap_s=1800, num_buckets=64):
    """SESSION-LEVEL rollup (one row per session): (user_id,
    session_idx, n_events, duration_us) under the same 30-min-gap rule
    as :func:`events_sessionize` — the table a product/engagement
    pipeline feeds into retention and engagement models.

    Same bucketed shape as sessionize (bucket = user_id & (nb−1), each
    bucket sessionizes all its users in one lexsort + one break
    vector); sessions materialize via a cumulative-sum session key and
    one C++ group_by — never a per-user or per-session Python loop.
    session_idx is the per-user ordinal in time order, duration the
    int64 microsecond span (0 for singletons)."""
    gap_us = gap_s * 1_000_000
    nb = num_buckets

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = batch.column('user_id').to_numpy(zero_copy_only=False) & (nb - 1)
        return batch.append_column('bucket', pa.array(b, pa.int64()))

    def sessions(group: pa.Table) -> pa.Table:
        uid = group.column('user_id').to_numpy(zero_copy_only=False)
        ts = group.column('ts').cast(pa.int64()) \
                  .to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, uid))
        uid, ts = uid[order], ts[order]
        new_user = np.empty(len(uid), np.bool_)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        brk = new_user | (np.diff(ts, prepend=ts[0]) > gap_us)
        sess = np.cumsum(brk)          # globally unique in this bucket
        t = pa.table({'uid': pa.array(uid, pa.int64()),
                      'sess': pa.array(sess, pa.int64()),
                      'ts': pa.array(ts, pa.int64())})
        g = t.group_by(['uid', 'sess']).aggregate(
            [('ts', 'min'), ('ts', 'max'), ([], 'count_all')])
        g = g.sort_by([('uid', 'ascending'), ('sess', 'ascending')])
        u = g.column('uid').to_numpy(zero_copy_only=False)
        idx = rank_in_sorted_key(u)    # per-user 1-based session ordinal
        return pa.table({
            'user_id': pa.array(u, pa.int64()),
            'session_idx': pa.array(idx, pa.int64()),
            'n_events': g.column('count_all').cast(pa.int64()),
            'duration_us': pc.subtract(g.column('ts_max'),
                                       g.column('ts_min')).cast(pa.int64()),
        })

    ds = read_table(sf_dir, 'events', columns=['user_id', 'ts'])
    return (ds.map_batches(add_bucket, batch_format='pyarrow',
                           zero_copy_batch=True)
              .groupby('bucket').map_groups(sessions,
                                            batch_format='pyarrow'))


SESSION_DURATIONS_SQL = """
WITH e AS (
  SELECT user_id, epoch_us(ts)::BIGINT AS ts_us FROM events
), b AS (
  SELECT user_id, ts_us,
         CASE WHEN ts_us - lag(ts_us) OVER w > {gap_us}
              OR lag(ts_us) OVER w IS NULL THEN 1 ELSE 0 END AS brk
  FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts_us)
), s AS (
  SELECT user_id, ts_us,
         sum(brk) OVER (PARTITION BY user_id ORDER BY ts_us
                        ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
           AS session_idx
  FROM b
)
SELECT user_id, session_idx::BIGINT AS session_idx,
       count(*)::BIGINT AS n_events,
       (max(ts_us) - min(ts_us))::BIGINT AS duration_us
FROM s GROUP BY user_id, session_idx
""".format(gap_us=1800 * 1_000_000)


def purchase_view_lag(sf_dir, num_buckets=64):
    """FUNNEL-LATENCY as-of SELF-join: for every purchase, the lag to
    the user's latest STRICTLY-EARLIER view (NULL if none) — the
    conversion-latency table behind attribution windows.  The strict
    inequality makes the result independent of how same-timestamp rows
    are ordered, so both sides are deterministic without a tiebreak.

    Shape: map-side filter to the two event types, ONE user-bucketed
    exchange, then a single vectorized structured-key searchsorted of
    all purchases against all views in the bucket ((user, ts) composite
    keys — no per-user loop).  All int64 microseconds."""
    nb = num_buckets

    def two_types(batch: pa.Table) -> pa.Table:
        et = batch.column('event_type')
        keep = pc.or_(pc.equal(et, 'view'), pc.equal(et, 'purchase'))
        t = batch.filter(keep)
        b = t.column('user_id').to_numpy(zero_copy_only=False) & (nb - 1)
        return pa.table({
            'event_id': t.column('event_id'),
            'user_id': t.column('user_id'),
            'ts_us': t.column('ts').cast(pa.int64()),
            'is_view': pc.equal(t.column('event_type'), 'view'),
            'bucket': pa.array(b, pa.int64()),
        })

    def asof(group: pa.Table) -> pa.Table:
        isv = group.column('is_view').to_numpy(zero_copy_only=False)
        uid = group.column('user_id').to_numpy(zero_copy_only=False)
        ts = group.column('ts_us').to_numpy(zero_copy_only=False)
        eid = group.column('event_id').to_numpy(zero_copy_only=False)
        vk = np.empty(int(isv.sum()), dtype=[('u', '<i8'), ('t', '<i8')])
        vk['u'], vk['t'] = uid[isv], ts[isv]
        vk.sort()
        pu, pt, pe = uid[~isv], ts[~isv], eid[~isv]
        pk = np.empty(len(pu), dtype=[('u', '<i8'), ('t', '<i8')])
        pk['u'], pk['t'] = pu, pt
        # first view >= (user, purchase_ts) — entry before it is the
        # latest STRICTLY earlier view IF it belongs to the same user
        idx = np.searchsorted(vk, pk, side='left') - 1
        ok = idx >= 0
        safe = np.maximum(idx, 0)
        ok &= (vk['u'][safe] == pu)
        lag = np.where(ok, pt - vk['t'][safe], 0)
        return pa.table({
            'event_id': pa.array(pe, pa.int64()),
            'user_id': pa.array(pu, pa.int64()),
            'ts_us': pa.array(pt, pa.int64()),
            'lag_us': pa.array(np.where(ok, lag, 0), pa.int64(),
                               mask=~ok),
        })

    ds = read_table(sf_dir, 'events',
                    columns=['event_id', 'user_id', 'ts', 'event_type'])
    return ds.map_batches(two_types, batch_format='pyarrow',
                          zero_copy_batch=True) \
             .groupby('bucket').map_groups(asof, batch_format='pyarrow')


PURCHASE_VIEW_LAG_SQL = """
WITH p AS (
  SELECT event_id, user_id, epoch_us(ts)::BIGINT AS ts_us
  FROM events WHERE event_type = 'purchase'
), v AS (
  SELECT user_id, epoch_us(ts)::BIGINT AS ts_us
  FROM events WHERE event_type = 'view'
)
SELECT p.event_id, p.user_id, p.ts_us,
       p.ts_us - (SELECT max(v.ts_us) FROM v
                  WHERE v.user_id = p.user_id
                    AND v.ts_us < p.ts_us) AS lag_us
FROM p
"""


def events_type_drift(sf_dir):
    """DISTRIBUTION-DRIFT monitor: per day, the L1 distance between the
    day's event-type distribution and the previous day's — the
    ingestion-health dashboard number that catches a broken producer
    before it poisons training data.  EXACT RATIONAL arithmetic: with
    day counts c_t (total N) and previous-day counts p_t (total M),
    L1 = Σ_t |c_t/N − p_t/M| = (Σ_t |c_t·M − p_t·N|) / (N·M) — an
    integer numerator and ONE division, half-up r6.  Python-int
    arithmetic in the fold keeps c·M exact at any scale.

    Shape: one (type, day) count combiner exchange (state = types ×
    days, calendar-bounded); the day-over-day enrichment folds the tiny
    per-day matrix driver-side (aggregate-then-enrich, the zscore
    pattern).  First day has no predecessor → NULL drift."""
    from .common import round_half_up

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column('ts').to_numpy(zero_copy_only=False) \
                  .view(np.int64)
        t = pa.table({
            'event_type': batch.column('event_type'),
            'day': pa.array(ts // _US_PER_DAY, pa.int64()),
        })
        g = t.group_by(['event_type', 'day']).aggregate([([], 'count_all')])
        return g.rename_columns(['event_type', 'day', 'n'])

    folded = read_table(sf_dir, 'events', columns=['event_type', 'ts']) \
        .map_batches(partial, batch_format='pyarrow',
                     zero_copy_batch=True) \
        .groupby('day').map_groups(
            lambda g: g.group_by(['event_type', 'day'])
                       .aggregate([('n', 'sum')])
                       .rename_columns(['event_type', 'day', 'n']),
            batch_format='pyarrow')
    tbl = pa.concat_tables([t for t in ray.get(folded.to_arrow_refs())
                            if t.num_rows])
    et = tbl.column('event_type').to_pylist()
    dy = tbl.column('day').to_numpy(zero_copy_only=False)
    cn = tbl.column('n').to_numpy(zero_copy_only=False)
    days = np.unique(dy)
    by_day = {}
    for t_, d_, c_ in zip(et, dy, cn):
        by_day.setdefault(int(d_), {})[t_] = int(c_)
    out_day, out_n, out_drift, mask = [], [], [], []
    prev = None
    for d in days.tolist():
        cur = by_day[d]
        N = sum(cur.values())
        out_day.append(d)
        out_n.append(N)
        if prev is None:
            out_drift.append(0.0)
            mask.append(True)
        else:
            pd_, M = prev
            num = sum(abs(cur.get(t_, 0) * M - pd_.get(t_, 0) * N)
                      for t_ in set(cur) | set(pd_))
            out_drift.append(float(round_half_up(
                np.float64(num) / np.float64(N * M), 6)))
            mask.append(False)
        prev = (cur, N)
    return pa.table({
        'day': pa.array(out_day, pa.int64()),
        'n_events': pa.array(out_n, pa.int64()),
        'l1_drift': pa.array(out_drift, pa.float64(),
                             mask=np.array(mask, bool)),
    })


EVENTS_TYPE_DRIFT_SQL = """
WITH d AS (
  SELECT event_type, epoch_us(ts) // {us_day} AS day,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
), days AS (
  SELECT day, sum(n)::BIGINT AS total,
         lag(day) OVER (ORDER BY day) AS prev_day
  FROM d GROUP BY day
), pairs AS (
  SELECT cur.day, cur.total AS n_cur, prv.total AS n_prv,
         sum(abs(coalesce(dc.n, 0)::HUGEINT * prv.total
                 - coalesce(dp.n, 0)::HUGEINT * cur.total)) AS num
  FROM days cur
  JOIN days prv ON prv.day = cur.prev_day
  JOIN (SELECT DISTINCT event_type FROM d) t ON TRUE
  LEFT JOIN d dc ON dc.day = cur.day AND dc.event_type = t.event_type
  LEFT JOIN d dp ON dp.day = prv.day AND dp.event_type = t.event_type
  GROUP BY cur.day, cur.total, prv.total
)
SELECT days.day::BIGINT AS day, days.total AS n_events,
       CASE WHEN pairs.day IS NULL THEN NULL
            ELSE floor(CAST(pairs.num AS DOUBLE)
                       / CAST(pairs.n_cur * pairs.n_prv AS DOUBLE)
                       * 1000000 + 0.5) / 1000000 END AS l1_drift
FROM days LEFT JOIN pairs ON pairs.day = days.day
""".format(us_day=_US_PER_DAY)


_US_PER_HOUR = 3_600_000_000


def events_hourly_profile(sf_dir):
    """DIURNAL SEASONALITY profile: per event type, the hour-of-day
    histogram with each hour's share of the type's volume and a peak
    flag — the shape an ingestion owner checks before reading any
    day-over-day number (events_type_drift) so daily seasonality is not
    mistaken for drift.  Output: (event_type, hour, n_events, share r6,
    is_peak); peak tie-break = lowest hour.

    Shape: one (type, hour) count combiner exchange — state is
    types × 24 cells, calendar-bounded like events_type_drift; the
    per-type enrichment (total, share, argmax) is vectorized inside the
    type's group.  hour = (epoch_µs // 3.6e9) % 24, integer arithmetic
    matching the oracle's extract(hour) for naive UTC timestamps."""
    from .common import round_half_up

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column('ts').to_numpy(zero_copy_only=False) \
                  .view(np.int64)
        t = pa.table({
            'event_type': batch.column('event_type'),
            'hour': pa.array((ts // _US_PER_HOUR) % 24, pa.int64()),
        })
        g = t.group_by(['event_type', 'hour']).aggregate([([], 'count_all')])
        return g.rename_columns(['event_type', 'hour', 'n'])

    def fold(group: pa.Table) -> pa.Table:
        g = group.group_by(['event_type', 'hour']).aggregate([('n', 'sum')])
        g = g.rename_columns(['event_type', 'hour', 'n'])
        hr = g.column('hour').to_numpy(zero_copy_only=False)
        n = g.column('n').to_numpy(zero_copy_only=False).astype(np.int64)
        total = n.sum()
        peak_hour = hr[np.lexsort((hr, -n))[0]]
        return pa.table({
            'event_type': g.column('event_type'),
            'hour': pa.array(hr, pa.int64()),
            'n_events': pa.array(n, pa.int64()),
            'share': pa.array(round_half_up(
                n.astype(np.float64) / np.float64(total), 6), pa.float64()),
            'is_peak': pa.array(hr == peak_hour, pa.bool_()),
        })

    return read_table(sf_dir, 'events', columns=['event_type', 'ts']) \
        .map_batches(partial, batch_format='pyarrow',
                     zero_copy_batch=True) \
        .groupby('event_type').map_groups(fold, batch_format='pyarrow')


EVENTS_HOURLY_PROFILE_SQL = """
WITH h AS (
  SELECT event_type, extract(hour FROM ts)::BIGINT AS hour,
         count(*)::BIGINT AS n
  FROM events GROUP BY 1, 2
), t AS (
  SELECT event_type, sum(n)::BIGINT AS tot FROM h GROUP BY event_type
), p AS (
  SELECT event_type, hour AS peak FROM (
    SELECT event_type, hour,
           row_number() OVER (PARTITION BY event_type
                              ORDER BY n DESC, hour) AS rn
    FROM h) WHERE rn = 1
)
SELECT h.event_type, h.hour, h.n AS n_events,
       floor(h.n::DOUBLE / t.tot::DOUBLE * 1000000 + 0.5) / 1000000
         AS share,
       h.hour = p.peak AS is_peak
FROM h JOIN t USING (event_type) JOIN p USING (event_type)
"""
