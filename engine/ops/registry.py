"""Query registry for the training-data operators in ``engine.ops``.

``queries()`` maps each query over the synthetic ``events`` table to a
callable taking an sf dir; ``oracle_sql()`` gives every one of them a
DuckDB equivalent (``tests/test_ops.py`` compares them value for
value).  The extraction job's own queries and oracles live in
``__ray_entry__``.

Value-equality engineering: both sides use identical integer arithmetic
and the shared half-up rounding formula ``floor(x*10^d + 0.5)/10^d``
(see engine/ops/common.py) — never the engines' differing native
``round``.  Nothing here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def queries() -> dict[str, Callable[[str], Any]]:
    from engine.ops import relational

    return {
        'events_funnel_windowed': relational.events_funnel_windowed,
        'events_dau_wau': relational.events_dau_wau,
        'events_anomaly_days': relational.events_anomaly_days,
        'events_late_arrivals': relational.events_late_arrivals,
        'session_durations': relational.session_durations,
        'purchase_view_lag': relational.purchase_view_lag,
        'events_type_drift': relational.events_type_drift,
        'events_hourly_profile': relational.events_hourly_profile,
        'user_event_pivot': relational.user_event_pivot,
        'events_user_rolling': relational.events_user_rolling,
        'events_latest_per_user': relational.events_latest_per_user,
        'events_rollup': relational.events_rollup,
        'events_funnel': relational.events_funnel,
        'users_view_and_purchase': relational.users_view_and_purchase,
        'users_purchase_not_view': relational.users_purchase_not_view,
        'events_time_rolling': relational.events_time_rolling,
        'events_value_zscore': relational.events_value_zscore,
        'events_value_deciles': relational.events_value_deciles,
        'events_hour_value_corr': relational.events_hour_value_corr,
        'events_debounced': relational.events_debounced,
        'user_event_paths': relational.user_event_paths,
        'events_windowed_distinct_users':
            relational.events_windowed_distinct_users,
        'events_value_mad_outliers': relational.events_value_mad_outliers,
        'user_decay_score': relational.user_decay_score,
        'events_user_gini': relational.events_user_gini,
        'events_by_type': relational.events_by_type,
        'events_sessionize': relational.events_sessionize,
        'events_windowed': relational.events_windowed,
        'events_windowed_sliding': relational.events_windowed_sliding,
        'events_value_quantiles': relational.events_value_quantiles,
        'events_user_running': relational.events_user_running,
        'events_props_stats': relational.events_props_stats,
        'events_value_hist_quantiles': relational.events_value_hist_quantiles,
    }


def oracle_sql() -> dict[str, str]:
    from engine.ops import relational

    generated = {
        'events_anomaly_days': relational.EVENTS_ANOMALY_SQL,
        'events_late_arrivals': relational.EVENTS_LATE_SQL,
        'session_durations': relational.SESSION_DURATIONS_SQL,
        'purchase_view_lag': relational.PURCHASE_VIEW_LAG_SQL,
        'events_type_drift': relational.EVENTS_TYPE_DRIFT_SQL,
        'events_hourly_profile': relational.EVENTS_HOURLY_PROFILE_SQL,
        'events_value_mad_outliers': relational.MAD_OUTLIERS_SQL,
        'user_decay_score': relational.DECAY_SCORE_SQL,
        'events_user_gini': relational.USER_GINI_SQL,
        'events_funnel_windowed': relational.funnel_windowed_oracle_sql(),
        'events_dau_wau': relational.DAU_WAU_SQL,
    }
    static = {
        'events_windowed_distinct_users': """
SELECT event_type, date_trunc('day', ts) AS window_start,
       count(*)::BIGINT AS n_events,
       count(DISTINCT user_id)::BIGINT AS distinct_users
FROM events GROUP BY event_type, date_trunc('day', ts)
""",
        'events_user_running': """
SELECT event_id, user_id,
       CAST(row_number() OVER w AS BIGINT) AS seq,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER w AS BIGINT)
         AS running_cents,
       CAST(epoch_us(ts) - lag(epoch_us(ts)) OVER w AS BIGINT) AS gap_us
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
""",
        'user_event_pivot': """
SELECT user_id,
       count(*) FILTER (WHERE event_type = 'click')::BIGINT AS n_click,
       count(*) FILTER (WHERE event_type = 'error')::BIGINT AS n_error,
       count(*) FILTER (WHERE event_type = 'purchase')::BIGINT AS n_purchase,
       count(*) FILTER (WHERE event_type = 'signup')::BIGINT AS n_signup,
       count(*) FILTER (WHERE event_type = 'view')::BIGINT AS n_view,
       count(*)::BIGINT AS n_total
FROM events GROUP BY user_id
""",
        'events_user_rolling': """
SELECT event_id, user_id,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER w AS BIGINT)
         AS roll_cents,
       CAST(count(*) OVER w AS BIGINT) AS n_in_frame
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
""",
        'events_latest_per_user': """
WITH r AS (
  SELECT user_id, event_id, event_type, ts, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
)
SELECT user_id, event_id, event_type, ts, value FROM r WHERE rn = 1
""",
        'events_rollup': """
SELECT event_type, date_trunc('day', ts) AS day,
       count(*)::BIGINT AS n_events,
       sum(CAST(floor(value * 100 + 0.5) AS BIGINT))::BIGINT AS sum_cents,
       (GROUPING(event_type) * 2 + GROUPING(date_trunc('day', ts)))::BIGINT AS lvl
FROM events
GROUP BY ROLLUP (event_type, date_trunc('day', ts))
""",
        'events_funnel': """
WITH v AS (
  SELECT user_id, min(ts) AS t1 FROM events
  WHERE event_type = 'view' GROUP BY user_id
), c AS (
  SELECT e.user_id, min(e.ts) AS t2 FROM events e
  JOIN v ON v.user_id = e.user_id
  WHERE e.event_type = 'click' AND e.ts > v.t1 GROUP BY e.user_id
), p AS (
  SELECT e.user_id, min(e.ts) AS t3 FROM events e
  JOIN c ON c.user_id = e.user_id
  WHERE e.event_type = 'purchase' AND e.ts > c.t2 GROUP BY e.user_id
)
SELECT 'view' AS stage, 1::BIGINT AS seq,
       (SELECT count(*) FROM v)::BIGINT AS n_users
UNION ALL SELECT 'click', 2::BIGINT, (SELECT count(*) FROM c)::BIGINT
UNION ALL SELECT 'purchase', 3::BIGINT, (SELECT count(*) FROM p)::BIGINT
""",
        'users_view_and_purchase': """
SELECT user_id FROM events WHERE event_type = 'view' AND value >= 95.0
INTERSECT
SELECT user_id FROM events WHERE event_type = 'purchase' AND value >= 95.0
""",
        'users_purchase_not_view': """
SELECT user_id FROM events WHERE event_type = 'purchase' AND value >= 95.0
EXCEPT
SELECT user_id FROM events WHERE event_type = 'view' AND value >= 95.0
""",
        'events_time_rolling': """
WITH e AS (SELECT event_id, user_id, ts,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events)
SELECT event_id, user_id,
       count(*) OVER w::BIGINT AS n_win,
       sum(cents) OVER w::BIGINT AS win_cents
FROM e
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
""",
        'events_value_zscore': """
WITH e AS (SELECT event_id, event_type,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
           FROM events),
     m AS (SELECT event_type, sum(cents)::BIGINT AS s,
                  sum(cents * cents)::BIGINT AS s2, count(*)::BIGINT AS n
           FROM e GROUP BY event_type)
SELECT e.event_id, e.event_type,
       floor(((e.cents - m.s::DOUBLE / m.n)
              / sqrt(m.s2::DOUBLE / m.n
                     - (m.s::DOUBLE / m.n) * (m.s::DOUBLE / m.n)))
             * 1000000 + 0.5) / 1000000 AS z
FROM e JOIN m ON m.event_type = e.event_type
""",
        'events_value_deciles': """
WITH ed AS (
  SELECT percentile_disc(0.1) WITHIN GROUP (ORDER BY value) AS e1, percentile_disc(0.2) WITHIN GROUP (ORDER BY value) AS e2, percentile_disc(0.3) WITHIN GROUP (ORDER BY value) AS e3, percentile_disc(0.4) WITHIN GROUP (ORDER BY value) AS e4, percentile_disc(0.5) WITHIN GROUP (ORDER BY value) AS e5, percentile_disc(0.6) WITHIN GROUP (ORDER BY value) AS e6, percentile_disc(0.7) WITHIN GROUP (ORDER BY value) AS e7, percentile_disc(0.8) WITHIN GROUP (ORDER BY value) AS e8, percentile_disc(0.9) WITHIN GROUP (ORDER BY value) AS e9
  FROM events
)
SELECT e.event_id, e.value,
       (1 + CASE WHEN e.value > ed.e1 THEN 1 ELSE 0 END + CASE WHEN e.value > ed.e2 THEN 1 ELSE 0 END + CASE WHEN e.value > ed.e3 THEN 1 ELSE 0 END + CASE WHEN e.value > ed.e4 THEN 1 ELSE 0 END + CASE WHEN e.value > ed.e5 THEN 1 ELSE 0 END + CASE WHEN e.value > ed.e6 THEN 1 ELSE 0 END + CASE WHEN e.value > ed.e7 THEN 1 ELSE 0 END + CASE WHEN e.value > ed.e8 THEN 1 ELSE 0 END + CASE WHEN e.value > ed.e9 THEN 1 ELSE 0 END)::BIGINT AS decile
FROM events e, ed
""",
        'events_hour_value_corr': """
WITH e AS (SELECT event_type,
                  ((epoch_us(ts) // 3600000000) % 24)::BIGINT AS x,
                  CAST(floor(value * 100 + 0.5) AS BIGINT) AS y FROM events),
     m AS (SELECT event_type, count(*)::BIGINT n, sum(x)::BIGINT sx,
                  sum(y)::BIGINT sy, sum(x*x)::BIGINT sxx,
                  sum(y*y)::BIGINT syy, sum(x*y)::BIGINT sxy
           FROM e GROUP BY event_type)
SELECT event_type,
       floor(((n::DOUBLE * sxy - sx::DOUBLE * sy)
              / (sqrt(n::DOUBLE * sxx - sx::DOUBLE * sx)
                 * sqrt(n::DOUBLE * syy - sy::DOUBLE * sy)))
             * 1000000 + 0.5) / 1000000 AS corr_hv,
       n AS n_events
FROM m
""",
        'events_debounced': """
WITH l AS (
  SELECT event_id, user_id, event_type, ts,
         lag(ts) OVER (PARTITION BY user_id, event_type
                       ORDER BY ts, event_id) AS prev_ts
  FROM events)
SELECT event_id, user_id, event_type, ts
FROM l WHERE prev_ts IS NULL OR ts - prev_ts > INTERVAL 5 MINUTE
""",
        'user_event_paths': """
WITH r AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events)
SELECT user_id, string_agg(event_type, '>' ORDER BY rn) AS path,
       count(*)::BIGINT AS n_steps
FROM r WHERE rn <= 10 GROUP BY user_id
""",
        'events_props_stats': """
WITH e AS (
  SELECT event_type, CAST(json_extract(props, '$.k') AS BIGINT) AS k
  FROM events
)
SELECT event_type, count(*)::BIGINT AS n_events, sum(k)::BIGINT AS sum_k,
       max(k)::BIGINT AS max_k, count(DISTINCT k)::BIGINT AS n_distinct_k,
       floor(sum(k)::DOUBLE / count(*) * 1000000 + 0.5) / 1000000 AS avg_k
FROM e GROUP BY event_type
""",
        'events_value_hist_quantiles': """
WITH b AS (
  SELECT event_type, CAST(floor(value / 0.5) AS BIGINT) AS bin,
         count(*)::BIGINT AS cnt
  FROM events GROUP BY 1, 2
), c AS (
  SELECT event_type, bin, cnt,
         CAST(sum(cnt) OVER (PARTITION BY event_type ORDER BY bin) AS BIGINT) AS cum,
         CAST(sum(cnt) OVER (PARTITION BY event_type) AS BIGINT) AS n
  FROM b
)
SELECT event_type,
       min(CASE WHEN cum >= ceil(0.50 * n) THEN (bin + 1) * 0.5 END) AS p50_est,
       min(CASE WHEN cum >= ceil(0.90 * n) THEN (bin + 1) * 0.5 END) AS p90_est,
       min(CASE WHEN cum >= ceil(0.99 * n) THEN (bin + 1) * 0.5 END) AS p99_est,
       max(n)::BIGINT AS n_events,
       count(*)::BIGINT AS n_bins
FROM c GROUP BY event_type
""",
        'events_by_type': """
SELECT event_type, count(*)::BIGINT AS n_events,
       floor(sum(value) * 100 + 0.5) / 100 AS sum_value,
       floor(sum(value) / count(*) * 1000000 + 0.5) / 1000000 AS avg_value,
       count(DISTINCT user_id)::BIGINT AS n_users
FROM events GROUP BY event_type
""",
        'events_sessionize': """
WITH d AS (
  SELECT user_id, ts, lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS pts
  FROM events
)
SELECT user_id, count(*)::BIGINT AS n_events,
       (1 + sum(CASE WHEN pts IS NOT NULL
                      AND epoch_us(ts) - epoch_us(pts) > 1800000000
                     THEN 1 ELSE 0 END))::BIGINT AS n_sessions
FROM d GROUP BY user_id
""",
        'events_windowed': """
SELECT event_type, date_trunc('day', ts) AS window_start,
       count(*)::BIGINT AS n_events,
       floor(sum(value) * 100 + 0.5) / 100 AS sum_value
FROM events GROUP BY event_type, date_trunc('day', ts)
""",
        # hopping 3-day/1-day windows: an event belongs to the 3 windows
        # starting at day, day-1, day-2 (same replication the map stage does)
        'events_windowed_sliding': """
SELECT event_type,
       date_trunc('day', ts) - k * INTERVAL 1 DAY AS window_start,
       count(*)::BIGINT AS n_events,
       floor(sum(value) * 100 + 0.5) / 100 AS sum_value
FROM events CROSS JOIN range(0, 3) t(k)
GROUP BY event_type, date_trunc('day', ts) - k * INTERVAL 1 DAY
""",
        'events_value_quantiles': """
SELECT event_type,
       percentile_disc(0.5) WITHIN GROUP (ORDER BY value) AS p50,
       percentile_disc(0.9) WITHIN GROUP (ORDER BY value) AS p90,
       percentile_disc(0.99) WITHIN GROUP (ORDER BY value) AS p99,
       count(*)::BIGINT AS n_events
FROM events GROUP BY event_type
""",
    }
    return generated | static
