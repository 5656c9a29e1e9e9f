"""Iterative graph analytics: PageRank over the part co-purchase graph.

The capability this adds is the ITERATIVE distributed-graph shape — the
same round structure a 100 TB link-graph (web-page rank for crawl
prioritization, document-citation centrality) runs: a materialized edge
list co-partitioned with a per-node state table, K rounds of
(attach state to edge sources → per-destination fold), each round two
bucketed exchanges of ONE ROW PER NODE/EDGE, never the raw corpus.  The
component solver in :mod:`engine.ops.clusters` iterates min-labels to a
fixpoint; this iterates a rank sum a FIXED K rounds — together they
cover both fixpoint- and round-bounded iteration.

EXACT-PARITY design (the oracle hash-compares int64 values): the whole
computation is FIXED-POINT INTEGER arithmetic — ranks are scaled by
10^12, the damping step is ``B + (85 · S) // 100`` with integer floor
division, and every per-edge contribution ``r // deg`` is an int64.
Integer sums are order-independent (float sums are not), so the
distributed fold, the local small-graph path and DuckDB's HUGEINT
``SUM`` agree bit-for-bit regardless of block order.  All operands are
positive, so numpy's floor ``//`` and DuckDB's truncating ``//``
agree.  Overflow headroom: Σ ranks ≤ N·10^12; at N = 10^6 parts,
85·S ≈ 8.5e19 exceeds int64 — the engine folds per-destination sums
(far below N nodes' total), and the documented contract is
SCALE = 10^12 for catalogs ≤ 10^5 nodes (drop SCALE one decade per
decade of nodes; the oracle generator takes the same constant).

Graph definition (deterministic from lineitem alone): nodes are parts,
with an edge between two parts iff they appear in the SAME order
(distinct (orderkey, partkey) first, so duplicate lineitems don't
multiply edges).  Directed both ways; deg = distinct-neighbor count.
R0(u) = SCALE; R_{i+1}(u) = B + (85 · Σ_{(v,u)∈E} R_i(v)//deg(v)) // 100
with B = (15 · SCALE) // 100.  Every node in the graph has in- and
out-edges (edges are symmetric), so there is no dangling-mass term.

Like :mod:`engine.ops.clusters`, a MEASURED small-graph gate
(edges.count() ≤ SMALL_EDGE_LIMIT) solves tiny graphs driver-side with
the identical integer math — below ~32 MB of edges the K-round
distributed loop is pure scheduling overhead; the distributed path is
exercised by forcing ``small_edge_limit=0`` in tests.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from .common import pool, read_small_table, read_table, run_pairs

__all__ = ['part_pagerank', 'pagerank_oracle_sql',
           'part_assoc_rules', 'assoc_rules_oracle_sql',
           'part_triangles', 'TRIANGLES_SQL']

PR_SCALE = 10 ** 12
PR_DAMP_NUM, PR_DAMP_DEN = 85, 100
PR_BASE = ((PR_DAMP_DEN - PR_DAMP_NUM) * PR_SCALE) // PR_DAMP_DEN
PR_ITERS = 5
PR_TOPK = 20
SMALL_EDGE_LIMIT = 1 << 21     # ~32 MB of (src, dst) rows — measured gate


def _bucket(ids, nb):
    return ids & (nb - 1)


def _pairs_in_runs(key, val):
    """All ordered pairs (a ≠ b) of ``val`` within each equal-``key`` run
    of a LEXSORTED (key, val) pair of arrays — one fully vectorized
    ``run_pairs`` expansion (a per-run meshgrid loop here cost ~10 s at
    150k order baskets; the basket-size² output is the documented skew
    contract, same as the oracle's per-order self-join)."""
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    lens = np.diff(np.r_[starts, len(key)])
    a_idx, b_idx = run_pairs(lens)
    return val[a_idx], val[b_idx]


def _make_order_parts(nb):
    def fn(batch: pa.Table) -> pa.Table:
        g = batch.group_by(['l_orderkey', 'l_partkey']).aggregate([])
        ok = g.column('l_orderkey').to_numpy(zero_copy_only=False)
        return g.append_column('bucket',
                               pa.array(_bucket(ok, nb), pa.int64()))
    return fn


def _make_order_pairs(nb):
    def fn(group: pa.Table) -> pa.Table:
        """Per orderkey-bucket: re-distinct across blocks, then per-order
        pair expansion; bucket-local distinct caps the emit, the
        src-bucketed edge fold removes cross-bucket duplicates."""
        g = group.group_by(['l_orderkey', 'l_partkey']).aggregate([])
        ok = g.column('l_orderkey').to_numpy(zero_copy_only=False)
        pk = g.column('l_partkey').to_numpy(zero_copy_only=False)
        order = np.lexsort((pk, ok))
        src, dst = _pairs_in_runs(ok[order], pk[order])
        e = pa.table({'src': pa.array(src, pa.int64()),
                      'dst': pa.array(dst, pa.int64())}) \
              .group_by(['src', 'dst']).aggregate([])
        return e.append_column('bucket', pa.array(
            _bucket(e.column('src').to_numpy(zero_copy_only=False), nb),
            pa.int64()))
    return fn


def _edge_fold(group: pa.Table) -> pa.Table:
    """Per src-bucket: global-distinct edges (a given (src, dst) lands in
    exactly this bucket) + deg(src) attached to every edge row."""
    e = group.group_by(['src', 'dst']).aggregate([])
    deg = e.group_by('src').aggregate([([], 'count_all')]) \
           .rename_columns(['src', 'deg'])
    j = e.join(deg, keys='src', join_type='inner')
    return pa.table({'src': j.column('src'), 'dst': j.column('dst'),
                     'deg': j.column('deg').cast(pa.int64())})


def _local_pagerank(src, dst, iters):
    """Driver-side path of the measured gate — the IDENTICAL integer
    recurrence as the distributed loop (int64 sums are associative, so
    fold order cannot matter)."""
    nodes, inv_src = np.unique(src, return_inverse=True)
    inv_dst = np.searchsorted(nodes, dst)     # symmetric edges: dst ⊆ nodes
    deg = np.bincount(inv_src, minlength=len(nodes)).astype(np.int64)
    r = np.full(len(nodes), PR_SCALE, np.int64)
    for _ in range(iters):
        contrib = r[inv_src] // deg[inv_src]
        s = np.zeros(len(nodes), np.int64)
        np.add.at(s, inv_dst, contrib)
        r = PR_BASE + (PR_DAMP_NUM * s) // PR_DAMP_DEN
    return nodes, r


def _make_rank_rows(nb):
    def fn(batch: pa.Table) -> pa.Table:
        """Edge rows → per-block distinct src rows.  Block-local distinct
        is NOT global after the width compaction (a node's edges can
        span blocks), and a duplicated rank row would DOUBLE that node's
        contributions in the attach join — so these partials must go
        through :func:`_init_fold`'s per-bucket distinct before the
        first iteration (cf. clusters.py, where the min fold absorbs
        duplicates for free; a sum fold does not)."""
        g = batch.group_by(['src']).aggregate([])
        ids = g.column('src')
        return pa.table({
            'node': ids,
            'r': pa.array(np.full(g.num_rows, PR_SCALE, np.int64)),
            'bucket': pa.array(
                _bucket(ids.to_numpy(zero_copy_only=False), nb), pa.int64()),
        })
    return fn


def _init_fold(group: pa.Table) -> pa.Table:
    """Per node-bucket: global-distinct initial rank rows."""
    return group.group_by(['node', 'r', 'bucket']).aggregate([])


def _make_attach(nb):
    def fn(group: pa.Table) -> pa.Table:
        """Per src-bucket of (edges ∪ rank rows): contribution rows
        (dst, r(src) // deg(src)), re-bucketed by dst."""
        import pyarrow.compute as pc
        is_rank = pc.is_null(group.column('dst'))
        ranks = group.filter(is_rank).select(['src', 'r'])
        edges = group.filter(pc.invert(is_rank)).select(['src', 'dst', 'deg'])
        if edges.num_rows == 0 or ranks.num_rows == 0:
            z = pa.array([], pa.int64())
            return pa.table({'dst': z, 'contrib': z, 'bucket': z})
        j = edges.join(ranks, keys='src', join_type='inner')
        contrib = (j.column('r').to_numpy(zero_copy_only=False)
                   // j.column('deg').to_numpy(zero_copy_only=False))
        dst = j.column('dst').to_numpy(zero_copy_only=False)
        return pa.table({'dst': pa.array(dst, pa.int64()),
                         'contrib': pa.array(contrib, pa.int64()),
                         'bucket': pa.array(_bucket(dst, nb), pa.int64())})
    return fn


def _make_rank_fold(nb):
    def fn(group: pa.Table) -> pa.Table:
        """Per dst-bucket: S per node, then the damped update."""
        g = group.group_by('dst').aggregate([('contrib', 'sum')])
        s = g.column('contrib_sum').to_numpy(zero_copy_only=False)
        node = g.column('dst').to_numpy(zero_copy_only=False)
        r = PR_BASE + (PR_DAMP_NUM * s) // PR_DAMP_DEN
        return pa.table({'node': pa.array(node, pa.int64()),
                         'r': pa.array(r, pa.int64()),
                         'bucket': pa.array(_bucket(node, nb), pa.int64())})
    return fn


def _make_topk_fold(topk):
    def fn(group: pa.Table) -> pa.Table:
        """Per node-bucket local top-k (a node lives in exactly one
        bucket, so the global top-k is a subset of the bucket top-ks)."""
        return group.sort_by([('r', 'descending'), ('node', 'ascending')]) \
                    .slice(0, topk).select(['node', 'r'])
    return fn


def part_pagerank(sf_dir, iters=PR_ITERS, topk=PR_TOPK, num_buckets=64,
                  small_edge_limit=SMALL_EDGE_LIMIT):
    """Top-``topk`` parts by fixed-point-integer PageRank over the
    co-purchase graph (module docstring).  Returns
    (p_partkey, p_name, pr_rank) ordered by rank desc, partkey asc."""
    nb = num_buckets
    width = pool()[1]
    # min_blocks: the exchange fan-in/out tracks the READ's block count
    # (one 14 MB file block ⇒ both sort exchanges and the quadratic
    # pairgen ran as ONE task; width blocks cut the edge build from
    # 9.3 s to 3.9 s at sf0.1 — the remaining wall is the two
    # data-proportional sort exchanges themselves)
    li = read_table(sf_dir, 'lineitem', columns=['l_orderkey', 'l_partkey'],
                    min_blocks=width)
    # edge build: distinct (order, part) → per-order pairs → src-bucketed
    # distinct fold with deg attached; materialized ONCE (re-read every
    # iteration, must not re-run the pair expansion) and compacted to
    # ~cluster-width blocks so each round's exchange pays per-block task
    # overhead proportional to width, not to the pairgen's bucket count.
    edges = li.map_batches(_make_order_parts(nb), batch_format='pyarrow',
                           zero_copy_batch=True) \
              .groupby('bucket').map_groups(_make_order_pairs(nb),
                                            batch_format='pyarrow') \
              .groupby('bucket').map_groups(_edge_fold,
                                            batch_format='pyarrow') \
              .repartition(width).materialize()

    n_edges = edges.count()
    if n_edges <= small_edge_limit:
        # MEASURED gate (clusters.py precedent): below ~32 MB of edges
        # the K-round loop is pure per-round scheduling overhead; the
        # integer math is identical, so results are bit-equal.
        from .common import concat_tables_or_empty
        tbl = concat_tables_or_empty(
            ray.get(edges.to_arrow_refs()),
            pa.schema([('src', pa.int64()), ('dst', pa.int64())])) \
            .combine_chunks()
        nodes, r = _local_pagerank(
            tbl.column('src').to_numpy(zero_copy_only=False),
            tbl.column('dst').to_numpy(zero_copy_only=False), iters)
        order = np.lexsort((nodes, -r))[:topk]
        cand = pa.table({'node': pa.array(nodes[order], pa.int64()),
                         'r': pa.array(r[order], pa.int64())})
    else:
        ranks = edges.map_batches(_make_rank_rows(nb),
                                  batch_format='pyarrow',
                                  zero_copy_batch=True) \
                     .groupby('bucket').map_groups(_init_fold,
                                                   batch_format='pyarrow')
        for _ in range(iters):
            edge_rows = edges.map_batches(
                lambda b: b.append_column('r', pa.nulls(b.num_rows,
                                                        pa.int64()))
                           .append_column('bucket', pa.array(
                               _bucket(b.column('src').to_numpy(
                                   zero_copy_only=False), nb), pa.int64())),
                batch_format='pyarrow', zero_copy_batch=True)
            rank_rows = ranks.map_batches(
                lambda b: pa.table({
                    'src': b.column('node'),
                    'dst': pa.nulls(b.num_rows, pa.int64()),
                    'deg': pa.nulls(b.num_rows, pa.int64()),
                    'r': b.column('r'),
                    'bucket': b.column('bucket')}),
                batch_format='pyarrow', zero_copy_batch=True)
            ranks = edge_rows.union(rank_rows).groupby('bucket').map_groups(
                _make_attach(nb), batch_format='pyarrow') \
                .groupby('bucket').map_groups(_make_rank_fold(nb),
                                              batch_format='pyarrow') \
                .repartition(width).materialize()
        cand_rows = ranks.groupby('bucket').map_groups(
            _make_topk_fold(topk), batch_format='pyarrow') \
            .take_batch(max(1, nb * topk), batch_format='pyarrow')
        cand = cand_rows.sort_by([('r', 'descending'),
                                  ('node', 'ascending')]).slice(0, topk)

    part = read_small_table(sf_dir, 'part', columns=['p_partkey', 'p_name'])
    j = cand.rename_columns(['p_partkey', 'pr_rank']) \
            .join(part, keys='p_partkey', join_type='inner')
    return ray.data.from_arrow(
        j.sort_by([('pr_rank', 'descending'), ('p_partkey', 'ascending')])
         .select(['p_partkey', 'p_name', 'pr_rank']))


def pagerank_oracle_sql(iters=PR_ITERS, topk=PR_TOPK):
    """Generated oracle: the K iterations unrolled as chained CTEs (SQL
    recursive CTEs forbid aggregation in the recursive term), with the
    SAME integer constants — HUGEINT sums, ``//`` floor division on
    positive operands, cast back to BIGINT each level."""
    cte = [
        "op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)",
        "edges AS (SELECT DISTINCT a.l_partkey AS src, b.l_partkey AS dst "
        "FROM op a JOIN op b ON a.l_orderkey = b.l_orderkey "
        "AND a.l_partkey <> b.l_partkey)",
        "deg AS (SELECT src AS node, COUNT(*)::BIGINT AS d "
        "FROM edges GROUP BY src)",
        "pr0 AS (SELECT node, CAST(%d AS BIGINT) AS r FROM deg)" % PR_SCALE,
    ]
    for i in range(1, iters + 1):
        cte.append(
            "pr%d AS (SELECT d.node, CAST(%d + (%d * COALESCE(s.s, 0)) "
            "// %d AS BIGINT) AS r FROM deg d LEFT JOIN "
            "(SELECT e.dst AS node, SUM(p.r // g.d) AS s FROM edges e "
            "JOIN pr%d p ON p.node = e.src JOIN deg g ON g.node = e.src "
            "GROUP BY e.dst) s ON s.node = d.node)"
            % (i, PR_BASE, PR_DAMP_NUM, PR_DAMP_DEN, i - 1))
    return ("WITH " + ",\n".join(cte) +
            "\nSELECT p_partkey, p_name, r AS pr_rank FROM pr%d "
            "JOIN part ON p_partkey = node "
            "ORDER BY r DESC, p_partkey LIMIT %d" % (iters, topk))


# ---------------------------------------------------------------------------
# Association rules over the co-purchase data (market-basket mining)


RULES_MIN_SUPPORT = 2
RULES_TOPK = 50


def part_assoc_rules(sf_dir, min_support=RULES_MIN_SUPPORT,
                     topk=RULES_TOPK, num_buckets=64):
    """Top-``topk`` association rules ant → con over order baskets:
    support = orders containing both parts, confidence = sup/sup(ant),
    lift = sup·N / (sup(ant)·sup(con)) — the rule-mining pass beside
    :func:`part_pagerank`'s centrality and token_cooccur_topk's
    pair counts (this one adds the directed rule METRICS).

    Parity: every metric is built from int64 counts; confidence and
    lift are each ONE float64 division of int64-exact operands (< 2^53)
    — no rounding step, no accumulation.

    Scale shape: the distinct (order, part) rows are materialized ONCE
    behind the orderkey-bucket exchange and reused by three consumers
    (pair expansion, item supports, the distinct-order count) — one
    exchange, not three.  Pairs keep per-order multiplicity into an
    antecedent-bucketed count fold; item supports ride the pair buckets
    as marker rows (C++ join per bucket, nothing broadcast); one
    re-exchange by consequent attaches the other side.  Per-bucket
    top-k is valid because a rule lives in exactly one bucket."""
    nb = num_buckets
    width = pool()[1]
    li = read_table(sf_dir, 'lineitem', columns=['l_orderkey', 'l_partkey'],
                    min_blocks=width)
    op_rows = li.map_batches(_make_order_parts(nb), batch_format='pyarrow',
                             zero_copy_batch=True) \
        .groupby('bucket').map_groups(
            lambda g: g.group_by(['l_orderkey', 'l_partkey', 'bucket'])
                       .aggregate([]),
            batch_format='pyarrow') \
        .repartition(width).materialize()

    # N = distinct orders (one count row per block, tiny driver fold —
    # op_rows is globally distinct, and a given order lives in one
    # orderkey bucket, hence in however many blocks repartition cut it
    # into; per-block distinct-order partials can overlap blocks of the
    # same bucket, so fold per orderkey again driver-side? No: count
    # distinct per block is NOT summable across blocks after an
    # arbitrary repartition — use the bucketed fold below instead.
    def order_count_rows(batch: pa.Table) -> pa.Table:
        g = batch.group_by(['l_orderkey', 'bucket']).aggregate([])
        return g

    n_rows = op_rows.map_batches(order_count_rows, batch_format='pyarrow',
                                 zero_copy_batch=True) \
        .groupby('bucket').map_groups(
            lambda g: pa.table({'n': pa.array(
                [g.group_by('l_orderkey').aggregate([]).num_rows],
                pa.int64())}),
            batch_format='pyarrow').take_all()
    n_orders = int(sum(r['n'] for r in n_rows))

    def item_sup_rows(batch: pa.Table) -> pa.Table:
        g = batch.group_by('l_partkey').aggregate([([], 'count_all')]) \
                 .rename_columns(['p', 'sup'])
        ids = g.column('p').to_numpy(zero_copy_only=False)
        return pa.table({'p': g.column('p'),
                         'sup': g.column('sup').cast(pa.int64()),
                         'bucket': pa.array(_bucket(ids, nb), pa.int64())})

    def item_sup_fold(group: pa.Table) -> pa.Table:
        g = group.group_by('p').aggregate([('sup', 'sum')])
        return pa.table({'p': g.column('p'),
                         'sup': g.column('sup_sum').cast(pa.int64())})

    item_sup = op_rows.map_batches(item_sup_rows, batch_format='pyarrow',
                                   zero_copy_batch=True) \
        .groupby('bucket').map_groups(item_sup_fold,
                                      batch_format='pyarrow').materialize()

    def pairgen(group: pa.Table) -> pa.Table:
        """Per orderkey-bucket: ordered within-order pairs, multiplicity
        kept (one row per (order, ant, con)); re-bucket by antecedent."""
        ok = group.column('l_orderkey').to_numpy(zero_copy_only=False)
        pk = group.column('l_partkey').to_numpy(zero_copy_only=False)
        order = np.lexsort((pk, ok))
        src, dst = _pairs_in_runs(ok[order], pk[order])
        return pa.table({'ant': pa.array(src, pa.int64()),
                         'con': pa.array(dst, pa.int64()),
                         'bucket': pa.array(_bucket(src, nb), pa.int64())})

    def sup_fold(group: pa.Table) -> pa.Table:
        g = group.group_by(['ant', 'con']).aggregate([([], 'count_all')]) \
                 .rename_columns(['ant', 'con', 'sup'])
        import pyarrow.compute as pc
        g = g.filter(pc.greater_equal(g.column('sup'), min_support))
        return pa.table({'ant': g.column('ant'), 'con': g.column('con'),
                         'sup': g.column('sup').cast(pa.int64()),
                         'bucket': group.column('bucket').slice(0, 1)
                                        .take(pa.array(
                                            np.zeros(g.num_rows, np.int64)))})

    pair_sup = op_rows.groupby('bucket').map_groups(pairgen,
                                                    batch_format='pyarrow') \
        .groupby('bucket').map_groups(sup_fold, batch_format='pyarrow')

    def attach_a(group: pa.Table) -> pa.Table:
        """Per ant-bucket of (pair rows ∪ item marker rows): attach
        sup(ant), re-bucket by consequent."""
        import pyarrow.compute as pc
        is_item = pc.is_null(group.column('con'))
        items = group.filter(is_item).select(['ant', 'sup']) \
                     .rename_columns(['ant', 'sup_a'])
        pairs = group.filter(pc.invert(is_item)).select(['ant', 'con', 'sup'])
        j = pairs.join(items, keys='ant', join_type='inner')
        con = j.column('con').to_numpy(zero_copy_only=False)
        return pa.table({'ant': j.column('ant'), 'con': j.column('con'),
                         'sup': j.column('sup'), 'sup_a': j.column('sup_a'),
                         'bucket': pa.array(_bucket(con, nb), pa.int64())})

    def attach_b_rank(group: pa.Table) -> pa.Table:
        """Per con-bucket: attach sup(con), compute confidence and lift
        (single exact divisions), local top-k by (lift desc, ant, con)."""
        import pyarrow.compute as pc
        is_item = pc.is_null(group.column('sup_a'))
        items = group.filter(is_item).select(['con', 'sup']) \
                     .rename_columns(['con', 'sup_b'])
        pairs = group.filter(pc.invert(is_item)) \
                     .select(['ant', 'con', 'sup', 'sup_a'])
        j = pairs.join(items, keys='con', join_type='inner')
        sup = j.column('sup').to_numpy(zero_copy_only=False)
        sup_a = j.column('sup_a').to_numpy(zero_copy_only=False)
        sup_b = j.column('sup_b').to_numpy(zero_copy_only=False)
        conf = sup.astype(np.float64) / sup_a.astype(np.float64)
        lift = (sup * np.int64(n_orders)).astype(np.float64) \
            / (sup_a * sup_b).astype(np.float64)
        t = pa.table({'antecedent': j.column('ant'),
                      'consequent': j.column('con'),
                      'support': pa.array(sup, pa.int64()),
                      'confidence': pa.array(conf, pa.float64()),
                      'lift': pa.array(lift, pa.float64())})
        order = np.lexsort((t.column('consequent').to_numpy(),
                            t.column('antecedent').to_numpy(),
                            -lift))[:topk]
        return t.take(pa.array(order))

    item_a = item_sup.map_batches(
        lambda b: pa.table({
            'ant': b.column('p'),
            'con': pa.nulls(b.num_rows, pa.int64()),
            'sup': b.column('sup'),
            'bucket': pa.array(_bucket(
                b.column('p').to_numpy(zero_copy_only=False), nb),
                pa.int64())}),
        batch_format='pyarrow', zero_copy_batch=True)
    with_a = pair_sup.union(item_a).groupby('bucket').map_groups(
        attach_a, batch_format='pyarrow')
    item_b = item_sup.map_batches(
        lambda b: pa.table({
            'ant': pa.nulls(b.num_rows, pa.int64()),
            'con': b.column('p'),
            'sup': b.column('sup'),
            'sup_a': pa.nulls(b.num_rows, pa.int64()),
            'bucket': pa.array(_bucket(
                b.column('p').to_numpy(zero_copy_only=False), nb),
                pa.int64())}),
        batch_format='pyarrow', zero_copy_batch=True)
    cand = with_a.union(item_b).groupby('bucket').map_groups(
        attach_b_rank, batch_format='pyarrow') \
        .take_batch(max(1, nb * topk), batch_format='pyarrow')
    lift = cand.column('lift').to_numpy(zero_copy_only=False)
    order = np.lexsort((cand.column('consequent').to_numpy(),
                        cand.column('antecedent').to_numpy(), -lift))[:topk]
    return cand.take(pa.array(order))


def assoc_rules_oracle_sql(min_support=RULES_MIN_SUPPORT, topk=RULES_TOPK):
    """DuckDB re-derivation of :func:`part_assoc_rules`."""
    return """
WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
n AS (SELECT count(DISTINCT l_orderkey)::BIGINT AS n FROM op),
item AS (SELECT l_partkey AS p, count(*)::BIGINT AS sup FROM op GROUP BY 1),
pairs AS (SELECT a.l_partkey AS ant, b.l_partkey AS con,
                 count(*)::BIGINT AS sup
          FROM op a JOIN op b ON a.l_orderkey = b.l_orderkey
           AND a.l_partkey <> b.l_partkey
          GROUP BY 1, 2 HAVING count(*) >= {ms}),
r AS (
  SELECT p.ant AS antecedent, p.con AS consequent, p.sup AS support,
         CAST(p.sup AS DOUBLE) / CAST(ia.sup AS DOUBLE) AS confidence,
         CAST(p.sup * (SELECT n FROM n) AS DOUBLE)
           / CAST(ia.sup * ic.sup AS DOUBLE) AS lift
  FROM pairs p JOIN item ia ON ia.p = p.ant JOIN item ic ON ic.p = p.con
)
SELECT * FROM r ORDER BY lift DESC, antecedent, consequent LIMIT {k}
""".format(ms=min_support, k=topk)


def _tri_pair_keys(a, b):
    """Structured (a, b) composite keys for exact set membership on
    int64 pairs (no arithmetic packing)."""
    out = np.empty(len(a), dtype=[('a', '<i8'), ('b', '<i8')])
    out['a'], out['b'] = a, b
    return out


def part_triangles(sf_dir, num_buckets=64):
    """TRIANGLE COUNT + global clustering coefficient of the part
    co-purchase graph — the graph-cohesion audit beside PageRank
    (how clique-y are baskets?).  One row: (n_edges, n_wedges,
    n_triangles, clustering = 3·T / W, W = Σ_v C(deg v, 2)).

    Distributed shape (min-vertex node-iterator): distinct undirected
    edges (a < b) resolve inside bucket(a); each bucket emits (1) its
    edges as membership markers keyed by bucket(a) and (2) all wedges
    (a; v < w) — neighbor pairs ABOVE the center — keyed by bucket(v),
    so every triangle a < v < w is tested exactly once, in the bucket
    that owns edge (v, w), by one sorted structured-key lookup.  The
    wedge emit is the documented basket-size² skew contract shared with
    the pair expansion; degrees fold separately (one row per (block,
    node)) for the exact wedge denominator.  Counts are int64; the
    coefficient is ONE division of int64-exact operands, half-up r6."""
    from .common import round_half_up

    nb = num_buckets
    width = pool()[1]
    li = read_table(sf_dir, 'lineitem', columns=['l_orderkey', 'l_partkey'],
                    min_blocks=width)
    pairs = li.map_batches(_make_order_parts(nb), batch_format='pyarrow',
                           zero_copy_batch=True) \
              .groupby('bucket').map_groups(_make_order_pairs(nb),
                                            batch_format='pyarrow')

    def undirected(batch: pa.Table) -> pa.Table:
        keep = pc.less(batch.column('src'), batch.column('dst'))
        t = batch.filter(keep)
        a = t.column('src').to_numpy(zero_copy_only=False)
        return pa.table({
            'a': t.column('src'), 'b': t.column('dst'),
            'bucket': pa.array(_bucket(a, nb), pa.int64()),
        })

    def wedge_and_marker(group: pa.Table) -> pa.Table:
        e = group.group_by(['a', 'b']).aggregate([])   # global distinct
        a = e.column('a').to_numpy(zero_copy_only=False)
        b = e.column('b').to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a))
        av, bv = a[order], b[order]
        v, w = _pairs_in_runs(av, bv)      # ordered pairs within adj(a)
        keep = v < w                       # each neighbor pair once
        v, w = v[keep], w[keep]
        wedges = pa.table({
            'a': pa.array(v, pa.int64()), 'b': pa.array(w, pa.int64()),
            'is_edge': pa.array(np.zeros(len(v), np.int64)),
            'bucket': pa.array(_bucket(v, nb), pa.int64()),
        })
        markers = pa.table({
            'a': pa.array(av, pa.int64()), 'b': pa.array(bv, pa.int64()),
            'is_edge': pa.array(np.ones(len(av), np.int64)),
            'bucket': pa.array(_bucket(av, nb), pa.int64()),
        })
        return pa.concat_tables([markers, wedges])

    def tri_count(group: pa.Table) -> pa.Table:
        m = group.column('is_edge').to_numpy(zero_copy_only=False) == 1
        a = group.column('a').to_numpy(zero_copy_only=False)
        b = group.column('b').to_numpy(zero_copy_only=False)
        ek = _tri_pair_keys(a[m], b[m])
        ek.sort()
        wk = _tri_pair_keys(a[~m], b[~m])
        if len(ek) and len(wk):
            idx = np.searchsorted(ek, wk)
            idx[idx == len(ek)] = 0
            tri = int(np.count_nonzero(ek[idx] == wk))
        else:
            tri = 0
        return pa.table({'n_edges': pa.array([int(m.sum())], pa.int64()),
                         'n_tri': pa.array([tri], pa.int64())})

    edge_side = pairs.map_batches(undirected, batch_format='pyarrow',
                                  zero_copy_batch=True) \
        .groupby('bucket').map_groups(wedge_and_marker,
                                      batch_format='pyarrow') \
        .groupby('bucket').map_groups(tri_count, batch_format='pyarrow')

    def deg_partial(batch: pa.Table) -> pa.Table:
        # pair rows are bucket-locally distinct only; an (a, b) edge
        # lives in exactly bucket(a), so the global distinct happens in
        # deg_fold and degrees are counted AFTER it.
        keep = pc.less(batch.column('src'), batch.column('dst'))
        t = batch.filter(keep)
        e = pa.table({'a': t.column('src'), 'b': t.column('dst')}) \
              .group_by(['a', 'b']).aggregate([])
        av = e.column('a').to_numpy(zero_copy_only=False)
        return e.append_column('bucket', pa.array(_bucket(av, nb),
                                                  pa.int64()))

    def deg_fold(group: pa.Table) -> pa.Table:
        e = group.group_by(['a', 'b']).aggregate([])   # global distinct
        a = e.column('a').to_numpy(zero_copy_only=False)
        b = e.column('b').to_numpy(zero_copy_only=False)
        nodes = np.concatenate([a, b])
        t = pa.table({'node': pa.array(nodes, pa.int64())})
        g = t.group_by('node').aggregate([([], 'count_all')])
        g = g.rename_columns(['node', 'd'])
        nd = g.column('node').to_numpy(zero_copy_only=False)
        return g.append_column('nbucket', pa.array(_bucket(nd, nb),
                                                   pa.int64()))

    def wedge_sum(group: pa.Table) -> pa.Table:
        g = group.group_by('node').aggregate([('d', 'sum')])
        d = g.column('d_sum').to_numpy(zero_copy_only=False) \
             .astype(np.int64)
        w = int(np.sum(d * (d - 1) // 2))
        return pa.table({'wedges': pa.array([w], pa.int64())})

    deg_side = pairs.map_batches(deg_partial, batch_format='pyarrow',
                                 zero_copy_batch=True) \
        .groupby('bucket').map_groups(deg_fold, batch_format='pyarrow') \
        .groupby('nbucket').map_groups(wedge_sum, batch_format='pyarrow')

    from .common import concat_tables_or_empty
    et = concat_tables_or_empty(
        ray.get(edge_side.to_arrow_refs()),
        pa.schema([('n_edges', pa.int64()), ('n_tri', pa.int64())]))
    wt = concat_tables_or_empty(
        ray.get(deg_side.to_arrow_refs()),
        pa.schema([('wedges', pa.int64())]))
    n_edges = int(np.sum(et.column('n_edges').to_numpy()))
    n_tri = int(np.sum(et.column('n_tri').to_numpy()))
    n_wedges = int(np.sum(wt.column('wedges').to_numpy()))
    clustering = float(round_half_up(
        3.0 * np.float64(n_tri) / np.float64(n_wedges), 6)) \
        if n_wedges > 0 else 0.0
    return pa.table({
        'n_edges': pa.array([n_edges], pa.int64()),
        'n_wedges': pa.array([n_wedges], pa.int64()),
        'n_triangles': pa.array([n_tri], pa.int64()),
        'clustering': pa.array([clustering], pa.float64()),
    })


TRIANGLES_SQL = """
WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
e AS (
  SELECT DISTINCT a.l_partkey AS a, b.l_partkey AS b
  FROM op a JOIN op b ON a.l_orderkey = b.l_orderkey
  AND a.l_partkey < b.l_partkey
),
deg AS (
  SELECT node, count(*)::BIGINT AS d FROM (
    SELECT a AS node FROM e UNION ALL SELECT b AS node FROM e
  ) GROUP BY node
),
tri AS (
  SELECT count(*)::BIGINT AS t
  FROM e e1
  JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b
  JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b
),
w AS (SELECT sum(d * (d - 1) // 2)::BIGINT AS wedges FROM deg),
ec AS (SELECT count(*)::BIGINT AS n_edges FROM e)
SELECT ec.n_edges, w.wedges AS n_wedges, tri.t AS n_triangles,
       CASE WHEN w.wedges > 0
            THEN floor(3.0 * CAST(tri.t AS DOUBLE)
                       / CAST(w.wedges AS DOUBLE) * 1000000 + 0.5)
                 / 1000000
            ELSE 0.0 END AS clustering
FROM ec, w, tri
"""
