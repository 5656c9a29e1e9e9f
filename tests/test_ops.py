"""Tests for the training-data ops layer (engine/ops/*), whose queries all
read the synthetic ``events`` table.

Strategy (SURVEY.md §5.3 level 4): every registered query is checked
value-for-value against its DuckDB oracle (the exact comparison the
driver performs at sf0.01); the other tests pin operator invariants the
oracles do not state.
"""

import os
import sys

import duckdb
import pandas as pd
import pytest

SF_DIR = '/root/testdata/sf0.001'

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope='module')
def oracle_con():
    from engine.ops import registry
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM read_parquet('%s')"
                % os.path.join(SF_DIR, 'events.parquet'))
    return con, registry


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    if len(df):
        df = df.sort_values(by=list(df.columns), kind='mergesort').reset_index(drop=True)
    return df


def _query_names():
    """Every registered query, checked at collection to have an oracle."""
    from engine.ops import registry
    names = sorted(registry.queries())
    assert names == sorted(registry.oracle_sql())
    return names


@pytest.mark.parametrize('name', _query_names())
def test_query_matches_oracle(ray_session, oracle_con, name):
    con, registry = oracle_con
    ray_df = registry.queries()[name](SF_DIR)
    if not isinstance(ray_df, pd.DataFrame):
        ray_df = ray_df.to_pandas()
    sql_df = con.execute(registry.oracle_sql()[name]).fetchdf()
    assert sorted(ray_df.columns) == sorted(sql_df.columns)
    assert len(ray_df) == len(sql_df)
    a, b = _canon(ray_df), _canon(sql_df)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_user_running_window_contract(ray_session):
    """events_user_running: per user, seq is 1..n in (ts, event_id) order,
    running_cents is the prefix sum of that user's cents, and gap_us is
    null exactly on seq==1 and equals the ts delta elsewhere."""
    import collections
    from engine.ops.relational import events_user_running
    rows = events_user_running(SF_DIR).take_all()
    by_user = collections.defaultdict(list)
    for r in rows:
        by_user[r['user_id']].append(r)
    for uid, rs in by_user.items():
        rs.sort(key=lambda r: r['seq'])
        assert [r['seq'] for r in rs] == list(range(1, len(rs) + 1))
        run = 0
        for r in rs:
            assert (r['gap_us'] is None) == (r['seq'] == 1)
        deltas = [b['running_cents'] - a['running_cents']
                  for a, b in zip(rs, rs[1:])]
        assert all(d >= 0 for d in deltas)  # synthetic values are >= 0


def test_hist_quantiles_bound_exact(ray_session):
    """The histogram-sketch estimate brackets the exact quantile:
    exact in (est - width, est] for every group and percentile."""
    from engine.ops.relational import (events_value_quantiles,
                                       events_value_hist_quantiles)
    width = 0.5
    exact = {r['event_type']: r
             for r in events_value_quantiles(SF_DIR).take_all()}
    for r in events_value_hist_quantiles(SF_DIR, width=width).take_all():
        e = exact[r['event_type']]
        for p in ('p50', 'p90', 'p99'):
            est = r[p + '_est']
            assert est - width < e[p] <= est, (r['event_type'], p, e[p], est)


def test_rolling_window_matches_running_prefix(ray_session):
    """For seq <= frame the rolling sum equals the running total (the
    frame hasn't saturated yet); afterwards n_in_frame == frame."""
    from engine.ops.relational import events_user_running, events_user_rolling
    run = {r['event_id']: r for r in events_user_running(SF_DIR).take_all()}
    for r in events_user_rolling(SF_DIR, frame=3).take_all():
        u = run[r['event_id']]
        if u['seq'] <= 3:
            assert r['n_in_frame'] == u['seq']
            assert r['roll_cents'] == u['running_cents']
        else:
            assert r['n_in_frame'] == 3
            assert r['roll_cents'] <= u['running_cents']


def test_pivot_unknown_type_raises(ray_session):
    """A value outside the pivot vocabulary must fail with a NAMED error,
    not an opaque KeyError deep in a worker."""
    from engine.ops.relational import user_event_pivot
    import ray.exceptions
    with pytest.raises((ValueError, ray.exceptions.RayTaskError)) as ei:
        user_event_pivot(SF_DIR, event_types=('click', 'view')).take_all()
    assert 'pivot vocabulary' in str(ei.value)


def test_window_ops_adversarial_events(ray_session, tmp_path):
    """Window operators vs their oracles on CRAFTED data the synthetic
    corpus never produces: duplicate timestamps within a user (tie-break
    must fall to event_id), negative values (cents floor is half-up,
    not trunc), and a single-event user (lag null, frame of 1)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from engine.ops import registry

    ts0 = 1704067200000000
    HOUR = 3_600_000_000
    tbl = pa.table({
        'event_id': pa.array([0, 1, 2, 3, 4, 5, 6, 7], pa.int64()),
        'ts': pa.array([ts0, ts0, ts0, ts0 + 10, ts0 + 10, ts0 + 99,
                        # exact 1-hour RANGE boundary (inclusive) and
                        # one microsecond past it (exclusive)
                        ts0 + 10 + HOUR, ts0 + 100 + HOUR],
                       pa.timestamp('us')),
        'user_id': pa.array([7, 7, 7, 7, 3, 3, 3, 3], pa.int64()),
        'event_type': pa.array(['click'] * 8, pa.string()),
        'value': pa.array([-1.005, 2.675, 0.0, -0.004, 5.5, -2.5,
                           1.0, 0.25], pa.float64()),
        'props': pa.array(['{"k": %d}' % i for i in range(8)], pa.string()),
    })
    d = str(tmp_path)
    pq.write_table(tbl, os.path.join(d, 'events.parquet'))

    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM read_parquet('%s')"
                % os.path.join(d, 'events.parquet'))
    sqls = registry.oracle_sql()
    qs = registry.queries()
    for name in ['events_user_running', 'events_user_rolling',
                 'events_time_rolling', 'events_value_zscore',
                 'events_props_stats', 'events_value_hist_quantiles']:
        ray_df = qs[name](d)
        if not isinstance(ray_df, pd.DataFrame):
            ray_df = ray_df.to_pandas()
        sql_df = con.execute(sqls[name]).fetchdf()
        a, b = _canon(ray_df), _canon(sql_df)
        pd.testing.assert_frame_equal(a, b, check_dtype=False), name


def test_time_rolling_matches_bruteforce(ray_session, tmp_path):
    """Property check on RANDOM data: the monotone-axis searchsorted
    kernel must equal the O(n²) window definition — every same-user
    event in (t-1h, t], inclusive at exactly one hour back."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from engine.ops.relational import events_time_rolling
    rng = np.random.default_rng(11)
    n = 400
    HOUR = 3_600_000_000
    ts0 = 1704067200000000
    ts = ts0 + rng.integers(0, 3 * HOUR, n)         # dense ties + boundaries
    uid = rng.integers(0, 7, n)
    val = rng.uniform(-5, 5, n).round(2)
    tbl = pa.table({
        'event_id': pa.array(np.arange(n), pa.int64()),
        'ts': pa.array(ts, pa.timestamp('us')),
        'user_id': pa.array(uid, pa.int64()),
        'event_type': pa.array(['x'] * n, pa.string()),
        'value': pa.array(val, pa.float64()),
        'props': pa.array(['{}'] * n, pa.string()),
    })
    pq.write_table(tbl, os.path.join(str(tmp_path), 'events.parquet'))
    got = events_time_rolling(str(tmp_path)).to_pandas() \
        .set_index('event_id').sort_index()
    cents = np.floor(val * 100 + 0.5).astype(np.int64)
    for i in range(n):
        m = (uid == uid[i]) & (ts >= ts[i] - HOUR) & (ts <= ts[i])
        assert got.loc[i, 'n_win'] == m.sum()
        assert got.loc[i, 'win_cents'] == cents[m].sum()


def test_decay_score_halving(ray_session):
    """The decay weighting is an exact binary shift: an event aged one
    more day contributes exactly half (integer) — checked by recomputing
    the score from raw events with plain Python ints."""
    import pyarrow.parquet as pq
    from engine.ops import relational
    got = relational.user_decay_score(SF_DIR).to_pandas() \
        .set_index('user_id')
    ev = pq.read_table(SF_DIR + '/events.parquet',
                       columns=['user_id', 'ts', 'value']).to_pandas()
    us = ev.ts.astype('int64')
    day = us // 86_400_000_000
    w = relational.DECAY_WINDOW_DAYS
    age = day.max() - day
    import math
    expect = {}
    for uid, a, v in zip(ev.user_id, age, ev.value):
        if a <= w:
            cents = math.floor(v * 100 + 0.5)
            expect[uid] = expect.get(uid, 0) + (cents << int(w - a))
    assert dict(zip(got.index, got.decay_score)) == expect


def test_user_gini_bounds(ray_session):
    """Gini of a count distribution lies in [0, 1); the hottest user's
    share is at least the uniform share 1/n_users."""
    from engine.ops import relational
    t = relational.events_user_gini(SF_DIR).to_pandas()
    assert ((t.gini >= 0) & (t.gini < 1)).all()
    assert (t.top_user_share >= 1.0 / t.n_users - 1e-9).all()
    assert (t.n_events >= t.n_users).all()


def test_windowed_funnel_bounded_by_unbounded(ray_session):
    """The time-bounded funnel can never pass MORE users per stage than
    the unbounded funnel; counts are monotone non-increasing along
    stages; conversion is n/n1."""
    from engine.ops import relational
    wf = relational.events_funnel_windowed(SF_DIR).to_pandas() \
        .sort_values('stage_idx')
    uf = relational.events_funnel(SF_DIR).to_pandas().sort_values('seq')
    assert (wf.n_users.values <= uf.n_users.values).all()
    assert (wf.n_users.diff().dropna() <= 0).all()
    n1 = wf.n_users.iloc[0]
    assert (wf.conversion == wf.n_users / float(n1)).all()


def test_late_arrivals_true_branch(ray_session, tmp_path):
    """The sf tables' ts is monotone in event_id (0 late rows), so the
    oracle check never exercises the late path — this fixture scrambles
    ts deterministically and re-checks full parity with lates present."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import duckdb

    from engine.ops.relational import events_late_arrivals, EVENTS_LATE_SQL

    n = 1000
    ids = np.arange(n, dtype=np.int64)
    base = 1_735_689_600_000_000
    ts_us = base + ((ids * 7919) % n) * 1_000_000   # heavily out of order
    pq.write_table(
        pa.table({'event_id': pa.array(ids),
                  'ts': pa.array(ts_us, pa.timestamp('us'))}),
        str(tmp_path / 'events.parquet'))

    got = events_late_arrivals(str(tmp_path), range_size=64).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM read_parquet('%s')"
                % str(tmp_path / 'events.parquet'))
    want = con.execute(EVENTS_LATE_SQL).fetchdf()
    assert got['is_late'].sum() > 0 and (~got['is_late']).sum() > 0
    a = _canon(got)
    b = _canon(want)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
