"""Training-data pipeline operators over Ray Data (beyond the reference).

The reference (cmlburnett/pypdfproc) is a single-document library with no
relational/dataflow layer (SURVEY.md §2.9).  ``relational`` adds the
event-log analytics a large-scale training-data pipeline needs over the
synthetic ``events`` table (funnels, sessions, paths, per-user scores,
key skew, daily activity, anomalies, late arrivals and drift), each
expressed Ray-Data-first (map_batches over zero-copy Arrow, bucketed
per-user exchanges, partial pre-aggregation before any groupby
shuffle).

Every query has a DuckDB oracle in ``registry.oracle_sql()``; value
equality is engineered (identical integer arithmetic, shared half-up
rounding — see ``common.round_half_up``).
"""
