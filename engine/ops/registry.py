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
        'events_funnel': relational.events_funnel,
        'events_hour_value_corr': relational.events_hour_value_corr,
        'events_debounced': relational.events_debounced,
        'user_event_paths': relational.user_event_paths,
        'user_decay_score': relational.user_decay_score,
        'events_user_gini': relational.events_user_gini,
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
        'user_decay_score': relational.DECAY_SCORE_SQL,
        'events_user_gini': relational.USER_GINI_SQL,
        'events_funnel_windowed': relational.funnel_windowed_oracle_sql(),
        'events_dau_wau': relational.DAU_WAU_SQL,
    }
    static = {
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
    }
    return generated | static
