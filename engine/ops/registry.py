"""Query registry for the training-data operators in ``engine.ops``.

``queries()`` maps each operator family to a callable taking an sf dir;
``oracle_sql()`` gives DuckDB equivalents for the SQL-expressible ones
(``tests/test_ops.py`` compares them value for value).  The extraction
job's own queries and oracles live in ``__ray_entry__``.

Value-equality engineering: both sides use identical integer arithmetic
and the shared half-up rounding formula ``floor(x*10^d + 0.5)/10^d``
(see engine/ops/common.py) — never the engines' differing native
``round``.  Nothing here calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

_Q1_CUTOFF = "TIMESTAMP '1998-09-02 00:00:00'"


def queries() -> dict[str, Callable[[str], Any]]:
    from engine.ops import relational, textstats

    return {
        'events_funnel_windowed': relational.events_funnel_windowed,
        'events_dau_wau': relational.events_dau_wau,
        'daily_revenue_running': relational.daily_revenue_running,
        'events_anomaly_days': relational.events_anomaly_days,
        'events_late_arrivals': relational.events_late_arrivals,
        'session_durations': relational.session_durations,
        'purchase_view_lag': relational.purchase_view_lag,
        'customer_ltv_deciles': relational.customer_ltv_deciles,
        'events_type_drift': relational.events_type_drift,
        'events_hourly_profile': relational.events_hourly_profile,
        'user_event_pivot': relational.user_event_pivot,
        'events_user_rolling': relational.events_user_rolling,
        'customer_order_counts': relational.customer_order_counts,
        'events_latest_per_user': relational.events_latest_per_user,
        'returnflag_priority_counts': relational.returnflag_priority_counts,
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
        'orders_price_percentile': relational.orders_price_percentile,
        'daily_activity': relational.daily_activity,
        'events_windowed_distinct_users':
            relational.events_windowed_distinct_users,
        'events_value_mad_outliers': relational.events_value_mad_outliers,
        'orders_cohort_retention': relational.orders_cohort_retention,
        'user_decay_score': relational.user_decay_score,
        'events_user_gini': relational.events_user_gini,
        # text analysis
        'doc_token_stats': textstats.doc_token_stats,
        'doc_token_bpe': textstats.doc_token_bpe,
        'doc_quality': textstats.doc_quality,
        'lang_id': textstats.lang_id,
        'fingerprint_md5': textstats.fingerprint_md5,
        'doc_scrub': textstats.doc_scrub,
        # relational / plan-op layer
        'q1_pricing': relational.q1_pricing,
        'top_orders_revenue': relational.top_orders_revenue,
        'customers_per_region': relational.customers_per_region,
        'supplier_balance_by_nation': relational.supplier_balance_by_nation,
        'events_by_type': relational.events_by_type,
        'events_sessionize': relational.events_sessionize,
        'events_windowed': relational.events_windowed,
        'events_windowed_sliding': relational.events_windowed_sliding,
        'events_asof_orders': relational.events_asof_orders,
        'events_range_orders': relational.events_range_orders,
        'top_parts': relational.top_parts,
        'customers_inactive': relational.customers_inactive,
        'top_orders_per_customer': relational.top_orders_per_customer,
        'events_value_quantiles': relational.events_value_quantiles,
        'shipping_priority': relational.shipping_priority,
        'events_user_running': relational.events_user_running,
        'events_props_stats': relational.events_props_stats,
        'events_value_hist_quantiles': relational.events_value_hist_quantiles,
    }


def oracle_sql() -> dict[str, str]:
    generated = {}
    from engine.ops import relational as _relational_mod
    generated['events_anomaly_days'] = _relational_mod.EVENTS_ANOMALY_SQL
    generated['events_late_arrivals'] = _relational_mod.EVENTS_LATE_SQL
    generated['session_durations'] = _relational_mod.SESSION_DURATIONS_SQL
    generated['purchase_view_lag'] = _relational_mod.PURCHASE_VIEW_LAG_SQL
    generated['customer_ltv_deciles'] = _relational_mod.LTV_DECILES_SQL
    generated['events_type_drift'] = _relational_mod.EVENTS_TYPE_DRIFT_SQL
    generated['events_hourly_profile'] = \
        _relational_mod.EVENTS_HOURLY_PROFILE_SQL
    generated['events_windowed_distinct_users'] = """
SELECT event_type, date_trunc('day', ts) AS window_start,
       count(*)::BIGINT AS n_events,
       count(DISTINCT user_id)::BIGINT AS distinct_users
FROM events GROUP BY event_type, date_trunc('day', ts)
"""
    from engine.ops import relational as _relational
    generated['events_value_mad_outliers'] = _relational.MAD_OUTLIERS_SQL
    generated['user_decay_score'] = _relational.DECAY_SCORE_SQL
    generated['events_user_gini'] = _relational.USER_GINI_SQL
    generated['events_funnel_windowed'] = \
        _relational.funnel_windowed_oracle_sql()
    generated['events_dau_wau'] = _relational.DAU_WAU_SQL
    generated['daily_revenue_running'] = _relational.REVENUE_RUNNING_SQL
    generated['orders_cohort_retention'] = _relational.COHORT_RETENTION_SQL
    static = {
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
        'customer_order_counts': """
SELECT c_custkey,
       count(o.o_orderkey)::BIGINT AS n_orders,
       coalesce(sum(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)), 0)::BIGINT
         AS spend_cents
FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
GROUP BY c_custkey
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
        'returnflag_priority_counts': """
SELECT l.l_returnflag,
       count(*) FILTER (WHERE o.o_orderpriority IN ('1-URGENT', '2-HIGH'))::BIGINT
         AS n_high,
       count(*) FILTER (WHERE o.o_orderpriority NOT IN ('1-URGENT', '2-HIGH'))::BIGINT
         AS n_low
FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
GROUP BY l.l_returnflag
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
        'orders_price_percentile': """
WITH e AS (SELECT o_orderkey, o_orderpriority,
                  CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
           FROM orders)
SELECT o_orderkey, o_orderpriority,
       floor(percent_rank() OVER (PARTITION BY o_orderpriority
                                  ORDER BY cents) * 1000000 + 0.5)
         / 1000000 AS pr
FROM e
""",
        'daily_activity': """
WITH o AS (SELECT date_trunc('day', o_orderdate) AS day,
                  count(*)::BIGINT AS n_orders FROM orders GROUP BY 1),
     e AS (SELECT date_trunc('day', ts) AS day,
                  count(*)::BIGINT AS n_events FROM events GROUP BY 1)
SELECT coalesce(o.day, e.day) AS day,
       coalesce(o.n_orders, 0)::BIGINT AS n_orders,
       coalesce(e.n_events, 0)::BIGINT AS n_events
FROM o FULL OUTER JOIN e ON e.day = o.day
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
        'doc_scrub': r"""
WITH s AS (
  SELECT doc_id,
         trim(regexp_replace(text, '\b(the|a|of|to|and|in|is|it|that|for|on|as|with|by)\b ?', '', 'g'), ' ') AS clean,
         len(regexp_extract_all(text, '\b(the|a|of|to|and|in|is|it|that|for|on|as|with|by)\b'))::BIGINT AS n_removed
  FROM documents
)
SELECT doc_id, md5(clean) AS clean_md5, length(clean)::BIGINT AS clean_len,
       n_removed
FROM s
""",
        'doc_token_stats': r"""
SELECT doc_id,
       len(regexp_extract_all(text, '\S+'))::BIGINT AS n_tokens,
       length(text)::BIGINT AS n_chars_calc,
       CASE WHEN len(regexp_extract_all(text, '\S+')) > 0
            THEN floor(len(regexp_extract_all(text, '\S'))::DOUBLE
                       / len(regexp_extract_all(text, '\S+')) * 10000 + 0.5) / 10000
            ELSE 0.0 END AS avg_token_len
FROM documents
""",
        'doc_token_bpe': r"""
SELECT doc_id,
       len(regexp_extract_all(text, ' ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+'))::BIGINT AS n_bpe_tokens,
       CASE WHEN len(regexp_extract_all(text, ' ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+')) > 0
            THEN floor(length(text)::DOUBLE
                       / len(regexp_extract_all(text, ' ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+'))
                       * 10000 + 0.5) / 10000
            ELSE 0.0 END AS chars_per_token
FROM documents
""",
        'doc_quality': r"""
WITH c AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '\S+'))::BIGINT AS n_tokens,
         len(regexp_extract_all(text, '\b(the|a|of|to|and|in|is|it|that|for|on|as|with|by)\b'))::BIGINT AS n_stopwords,
         len(regexp_extract_all(text, '[.,;:!?]'))::BIGINT AS n_punct,
         len(regexp_extract_all(text, '[0-9]'))::BIGINT AS n_digits
  FROM documents
), r AS (
  SELECT *, CASE WHEN n_tokens > 0
                 THEN floor(n_stopwords::DOUBLE / n_tokens * 1000000 + 0.5) / 1000000
                 ELSE 0.0 END AS stopword_ratio
  FROM c
)
SELECT doc_id, n_tokens, n_stopwords, n_punct, n_digits, stopword_ratio,
       (n_tokens >= 5 AND n_tokens <= 2000 AND stopword_ratio > 0.01) AS is_quality
FROM r
""",
        'lang_id': r"""
WITH s AS (
  SELECT doc_id, lang,
         len(regexp_extract_all(text, '\b(the|a|and|of|to)\b')) AS s_en,
         len(regexp_extract_all(text, '\b(der|die|das|und|ist)\b')) AS s_de,
         len(regexp_extract_all(text, '\b(le|la|les|et|est)\b')) AS s_fr,
         len(regexp_extract_all(text, '\b(el|los|las|y|es)\b')) AS s_es,
         len(regexp_extract_all(text, '[一-鿿]')) AS s_zh
  FROM documents
), p AS (
  SELECT doc_id, lang,
         CASE WHEN s_en >= s_de AND s_en >= s_fr AND s_en >= s_es AND s_en >= s_zh THEN 'en'
              WHEN s_de >= s_fr AND s_de >= s_es AND s_de >= s_zh THEN 'de'
              WHEN s_fr >= s_es AND s_fr >= s_zh THEN 'fr'
              WHEN s_es >= s_zh THEN 'es'
              ELSE 'zh' END AS pred_lang
  FROM s
)
SELECT doc_id, pred_lang, lang, (pred_lang = lang) AS is_match FROM p
""",
        'fingerprint_md5': "SELECT doc_id, md5(text) AS fp FROM documents",
        'q1_pricing': """
SELECT l_returnflag, l_linestatus,
       floor(sum(l_quantity) * 100 + 0.5) / 100 AS sum_qty,
       floor(sum(l_extendedprice) * 100 + 0.5) / 100 AS sum_base_price,
       floor(sum(l_extendedprice * (1 - l_discount)) * 100 + 0.5) / 100 AS sum_disc_price,
       floor(sum(l_quantity) / count(*) * 1000000 + 0.5) / 1000000 AS avg_qty,
       count(*)::BIGINT AS count_order
FROM lineitem WHERE l_shipdate <= %s
GROUP BY l_returnflag, l_linestatus
""" % _Q1_CUTOFF,
        'top_orders_revenue': """
SELECT l.l_orderkey AS o_orderkey,
       floor(sum(l.l_extendedprice * (1 - l.l_discount)) * 100 + 0.5) / 100 AS revenue
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
WHERE c.c_mktsegment = 'BUILDING'
GROUP BY l.l_orderkey
ORDER BY sum(l.l_extendedprice * (1 - l.l_discount)) DESC, l.l_orderkey ASC
LIMIT 10
""",
        'customers_per_region': """
SELECT r.r_name, count(*)::BIGINT AS n_customers
FROM customer c
JOIN nation n ON n.n_nationkey = c.c_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey
GROUP BY r.r_name
""",
        'supplier_balance_by_nation': """
SELECT n.n_name,
       floor(sum(s.s_acctbal) * 100 + 0.5) / 100 AS total_acctbal,
       count(*)::BIGINT AS n_suppliers
FROM supplier s JOIN nation n ON n.n_nationkey = s.s_nationkey
GROUP BY n.n_name
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
        'events_range_orders': """
SELECT o.o_orderkey, o.o_custkey, count(e.ts)::BIGINT AS n_events
FROM orders o LEFT JOIN events e
  ON e.user_id = o.o_custkey
 AND e.ts >= o.o_orderdate
 AND e.ts < o.o_orderdate + INTERVAL 7 DAY
GROUP BY o.o_orderkey, o.o_custkey
""",
        'events_asof_orders': """
SELECT e.event_id, e.user_id, o.o_orderdate AS asof_orderdate
FROM events e
ASOF LEFT JOIN orders o
  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
""",
        'top_parts': """
SELECT p_partkey, p_name, p_retailprice FROM part
ORDER BY p_retailprice DESC, p_partkey ASC LIMIT 10
""",
        'customers_inactive': """
SELECT c_mktsegment, count(*)::BIGINT AS n_customers
FROM customer c
WHERE NOT EXISTS (
  SELECT 1 FROM orders o
  WHERE o.o_custkey = c.c_custkey
    AND o.o_orderdate >= TIMESTAMP '1998-01-01 00:00:00')
GROUP BY c_mktsegment
""",
        'top_orders_per_customer': """
WITH r AS (
  SELECT o_custkey, o_orderkey, o_totalprice,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY o_totalprice DESC, o_orderkey ASC)::BIGINT AS rank
  FROM orders
)
SELECT o_custkey, o_orderkey, o_totalprice, rank FROM r WHERE rank <= 3
""",
        'events_value_quantiles': """
SELECT event_type,
       percentile_disc(0.5) WITHIN GROUP (ORDER BY value) AS p50,
       percentile_disc(0.9) WITHIN GROUP (ORDER BY value) AS p90,
       percentile_disc(0.99) WITHIN GROUP (ORDER BY value) AS p99,
       count(*)::BIGINT AS n_events
FROM events GROUP BY event_type
""",
        'shipping_priority': """
SELECT l.l_orderkey AS o_orderkey,
       floor(sum(l.l_extendedprice * (1 - l.l_discount)) * 100 + 0.5) / 100 AS revenue,
       o.o_orderdate, o.o_orderpriority
FROM customer c
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'BUILDING'
  AND o.o_orderdate < TIMESTAMP '1997-06-30 00:00:00'
  AND l.l_shipdate > TIMESTAMP '1997-06-30 00:00:00'
GROUP BY l.l_orderkey, o.o_orderdate, o.o_orderpriority
ORDER BY sum(l.l_extendedprice * (1 - l.l_discount)) DESC, l.l_orderkey ASC
LIMIT 10
""",
    }
    return generated | static
