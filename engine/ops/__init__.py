"""Training-data pipeline operators over Ray Data (beyond the reference).

The reference (cmlburnett/pypdfproc) is a single-document library with no
relational/dataflow layer (SURVEY.md §2.9).  These modules add the
operations a large-scale training-data pipeline needs, each expressed
Ray-Data-first (map_batches over zero-copy Arrow, broadcast small sides,
partial pre-aggregation before any groupby shuffle):

- textstats:   token counts, quality scoring, language-ID, md5 fingerprints,
               stopword scrubbing (six map-only queries)
- relational:  broadcast joins / pre-aggregated groupbys / sessionize

Every operator with SQL-expressible semantics has a DuckDB oracle in
``registry.oracle_sql()``; value equality is engineered (identical
integer arithmetic, shared half-up rounding — see ``common.round_half_up``).
"""
