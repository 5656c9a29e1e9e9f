"""Pipelines over the synthetic ``events`` table — the §2.9 plan-op layer.

Patterns demonstrated (each is the 100 TB-shape of the operation):

- *Pre-aggregated groupby*: every aggregate does a PARTIAL Arrow
  ``Table.group_by`` inside map_batches first, so the all-to-all groupby
  shuffle moves one combiner row per (key, block), never raw rows.
- *Bucketed exchange*: per-user logic groups on ``key & (nb-1)``, ONE
  exchange, with vectorized numpy resolution per bucket.  Grouping on the
  RAW key would pay ~50µs of map_groups Python+Arrow tax per key —
  billions of groups at corpus scale.
- *Broadcast of a small fold*: a low-cardinality result (the late-arrival
  per-bucket prefix) is ``ray.put`` ONCE and shared by every worker that
  reads it.
- *Predicate/column pruning at the read* (``columns=``), and read blocks
  sized by BYTES (common.read_table) so exchange task counts track data.
- *Sessions and funnels*: ordered per-key logic resolved for a whole
  bucket at once (lexsort + break vectors / forward-fill).
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .common import round_half_up, read_table

__all__ = ['events_funnel', 'events_hour_value_corr', 'events_debounced',
           'user_event_paths', 'events_anomaly_days', 'events_late_arrivals',
           'session_durations', 'purchase_view_lag', 'events_type_drift',
           'events_hourly_profile', 'user_decay_score', 'events_user_gini',
           'events_funnel_windowed', 'events_dau_wau']


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
    cf. ``events_hour_value_corr``), and the decay multiply is a BINARY
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
    session_idx, n_events, duration_us) under a 30-min-gap rule (a gap
    of more than ``gap_s`` starts a new session) — the table a
    product/engagement pipeline feeds into retention and engagement
    models.

    Bucketed (bucket = user_id & (nb−1)): each bucket sessionizes all
    its users in one lexsort + one break vector; sessions materialize
    via a cumulative-sum session key and one C++ group_by — never a per-user or per-session Python loop.
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
