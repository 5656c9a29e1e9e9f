"""Tests for the training-data ops layer (engine/ops/*), whose queries all
read the synthetic ``events`` table.

Strategy (SURVEY.md §5.3 level 4): every registered query is checked
value-for-value against its DuckDB oracle (the exact comparison the
driver performs at sf0.01); the other tests pin what the oracles do not
state: the decay score's exact halving per day, the Gini bounds, the
windowed funnel against the unbounded one, and the late-arrival path on
scrambled timestamps.
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
