"""Near-duplicate CLUSTER COLLAPSE: connected components over the
minhash near-dup pair graph → one ``cluster_id`` (= the component's min
doc_id) per document, survivors = cluster representatives.

This is the step a training-data pipeline runs AFTER pair discovery:
near-dup pairs are not directly actionable — A~B and B~C must collapse to
one keep-decision even when A~C was never emitted.

Distributed shape (the pair graph on a boilerplate-heavy corpus is
O(corpus), so no UNCONDITIONAL driver-side union-find; a MEASURED size
gate — edges.count() ≤ SMALL_EDGE_LIMIT — solves tiny graphs locally
with the identical min-label result, because the distributed fixpoint
on a small graph is pure per-round scheduling overhead):

1. pairs (minhash, verified) → symmetric edge list, MATERIALIZED once —
   edges are re-read every iteration and must not re-run discovery;
2. min-label propagation to fixpoint: each round, every node takes the
   min of its own label and its neighbors' labels.  One round = two
   bucketed exchanges (attach labels to edge sources, fold min per
   node), all C++ group_by inside buckets — the same co-partition
   pattern as minhash's attach stage.  Rounds needed = component
   diameter in hops (near-dup components are squat in practice —
   exact-dup clusters collapse through their min member in 2 rounds; a
   pathological path graph of length D costs D rounds, the documented
   worst case of plain label propagation);
3. one final co-partition join labels ← documents so untouched docs
   come out as singletons.

Each iteration materializes the (small) label table — labels are one row
per PAIRED doc, not per doc — so lineage stays flat and the convergence
check (`changed` sum) doesn't re-run prior rounds.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .common import read_table, pool
from .dedup import minhash_near_dup

__all__ = ['dedup_clusters', 'corpus_clean', 'components_from_pairs',
           'embedding_dedup_clusters', 'dedup_cluster_sizes',
           'cluster_sizes_oracle_sql', 'clean_token_budget',
           'token_budget_oracle_sql', 'dedup_keep_best',
           'training_manifest', 'source_quality_funnel']


def _bucket(ids, nb):
    return ids & (nb - 1)


# Edge count below which components are solved driver-side (symmetric
# edge rows × 16 B ≈ 32 MB at the limit).  A measured gate — the branch
# reads edges.count(), never guesses.
SMALL_EDGE_LIMIT = 1 << 21


def _local_components(src, dst, max_rounds=96):
    """Min-label connected components on a compacted edge list — identical
    result to the distributed loop: every node's label = min doc_id of
    its component.  Each round relaxes every edge AND pointer-jumps
    (``lbl = lbl[lbl_of(lbl)]``, valid because a label is always some
    node's id), so convergence is O(log diameter) rounds — a path graph
    that costs the plain propagation D rounds finishes in ~log2(D); the
    cap is defensive, not a silent truncation (it raises)."""
    nodes, inv_src = np.unique(src, return_inverse=True)
    inv_dst = np.searchsorted(nodes, dst)   # symmetric edges: dst ⊆ nodes
    lbl = nodes.copy()
    for _ in range(max_rounds):
        new = lbl.copy()
        np.minimum.at(new, inv_dst, lbl[inv_src])
        # pointer jumping: adopt the label of your current label's node
        np.minimum(new, new[np.searchsorted(nodes, new)], out=new)
        if np.array_equal(new, lbl):
            return nodes, lbl
        lbl = new
    raise RuntimeError(
        '_local_components: no fixpoint in %d doubling rounds '
        '(theoretically impossible below 2^%d nodes — file a bug)'
        % (max_rounds, max_rounds))


def _make_sym_edges(nb):
    def fn(batch: pa.Table) -> pa.Table:
        a = batch.column('doc_id_a')
        b = batch.column('doc_id_b')
        src = pa.chunked_array(list(a.chunks) + list(b.chunks), pa.int64())
        dst = pa.chunked_array(list(b.chunks) + list(a.chunks), pa.int64())
        return pa.table({
            'src': src,
            'dst': dst,
            'bucket': pa.array(_bucket(src.to_numpy(), nb), pa.int64()),
        })
    return fn


def _make_init_labels(nb):
    def fn(batch: pa.Table) -> pa.Table:
        # per-block distinct fold; the per-bucket min fold of round 1
        # removes cross-block duplicates
        g = batch.select(['src']).group_by('src').aggregate([])
        ids = g.column('src')
        return pa.table({
            'node': ids,
            'lbl': ids,
            'bucket': pa.array(_bucket(ids.to_numpy(), nb), pa.int64()),
        })
    return fn


def _attach_bucket(group: pa.Table) -> pa.Table:
    """Per src-hash bucket of (edges ∪ labels): emit one candidate row
    (node=dst, lbl=lbl(src)) per edge via a local C++ hash join."""
    import pyarrow.compute as pc
    is_lbl = pc.is_null(group.column('dst'))
    labels = group.filter(is_lbl).select(['src', 'lbl']) \
                  .rename_columns(['src', 'slbl'])
    edges = group.filter(pc.invert(is_lbl)).select(['src', 'dst'])
    if edges.num_rows == 0 or labels.num_rows == 0:
        return pa.table({'node': pa.array([], pa.int64()),
                         'lbl': pa.array([], pa.int64()),
                         'own': pa.array([], pa.bool_())})
    j = edges.join(labels, keys='src', join_type='inner')
    return pa.table({'node': j.column('dst'),
                     'lbl': j.column('slbl'),
                     'own': pa.array(np.zeros(j.num_rows, bool), pa.bool_())})


def _min_fold_bucket(group: pa.Table) -> pa.Table:
    """Per node-hash bucket of (candidates ∪ own labels): new label =
    min over all rows per node; ``changed`` = new < the own row's label."""
    g = group.group_by('node').aggregate([('lbl', 'min')])
    own = group.filter(group.column('own')).select(['node', 'lbl']) \
               .rename_columns(['node', 'old'])
    j = g.rename_columns(['node', 'new']).join(own, keys='node',
                                               join_type='inner')
    import pyarrow.compute as pc
    new = j.column('new')
    return pa.table({
        'node': j.column('node'),
        'lbl': new,
        'changed': pc.cast(pc.less(new, j.column('old')), pa.int64()),
    })


def _make_requeue(nb):
    def fn(batch: pa.Table) -> pa.Table:
        node = batch.column('node')
        return pa.table({
            'node': node,
            'lbl': batch.column('lbl'),
            'bucket': pa.array(_bucket(node.to_numpy(), nb), pa.int64()),
        })
    return fn


def _make_doc_rows(nb):
    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column('doc_id')
        n = batch.num_rows
        return pa.table({
            'node': ids,
            'lbl': pa.nulls(n, pa.int64()),
            'is_doc': pa.array(np.ones(n, bool), pa.bool_()),
            'bucket': pa.array(_bucket(ids.to_numpy(), nb), pa.int64()),
        })
    return fn


def _finalize_bucket(group: pa.Table) -> pa.Table:
    """Per bucket of (documents ∪ final labels): left-join labels onto the
    doc rows; unpaired docs stay singletons (cluster_id = doc_id)."""
    import pyarrow.compute as pc
    is_doc = group.column('is_doc')
    docs = group.filter(is_doc).select(['node'])
    labels = group.filter(pc.invert(is_doc)).select(['node', 'lbl'])
    j = docs.join(labels, keys='node', join_type='left outer')
    cid = pc.coalesce(j.column('lbl'), j.column('node'))
    return pa.table({
        'doc_id': j.column('node'),
        'cluster_id': cid,
        'is_survivor': pc.equal(cid, j.column('node')),
    })


def dedup_clusters(sf_dir, threshold=0.8, k=3, num_buckets=64, max_iters=50,
                   small_edge_limit=SMALL_EDGE_LIMIT):
    """Connected components over minhash near-dup pairs via distributed
    min-label propagation (see module docstring).  Returns one row per
    document: (doc_id, cluster_id, is_survivor)."""
    pairs = minhash_near_dup(sf_dir, threshold, k, num_buckets)
    docs = read_table(sf_dir, 'documents', columns=['doc_id'],
                      min_blocks=pool()[1])
    return components_from_pairs(pairs, docs, num_buckets=num_buckets,
                                 max_iters=max_iters,
                                 small_edge_limit=small_edge_limit)


def components_from_pairs(pairs, entities, num_buckets=64, max_iters=50,
                          small_edge_limit=SMALL_EDGE_LIMIT):
    """The component-collapse CORE, parameterized over the pair source:
    ``pairs`` is any Dataset of (doc_id_a, doc_id_b) edges, ``entities``
    any Dataset with a ``doc_id`` column enumerating the full entity
    set (unpaired entities come out as singletons).  Shared by the
    minhash path (:func:`dedup_clusters`) and the embedding path
    (:func:`embedding_dedup_clusters`) — ONE solver, one measured
    small-graph gate, one convergence contract."""
    nb = num_buckets
    width = pool()[1]
    # compact the edge list to ~cluster-width blocks BEFORE iterating:
    # minhash's bucketed output is many near-empty blocks, and every
    # label-prop exchange pays per-BLOCK task overhead × max_iters
    edges = pairs.map_batches(_make_sym_edges(nb), batch_format='pyarrow',
                              zero_copy_batch=True) \
                 .repartition(width).materialize()

    def _init_labels():
        return edges.map_batches(_make_init_labels(nb),
                                 batch_format='pyarrow',
                                 zero_copy_batch=True) \
                    .groupby('bucket').map_groups(
                        lambda g: g.group_by(['node', 'lbl', 'bucket'])
                                   .aggregate([]),
                        batch_format='pyarrow') \
                    .repartition(width).materialize()

    converged = True
    n_edges = edges.count()
    if n_edges == 0:
        labels = _init_labels()      # empty, keeps the finalize schema
    elif n_edges <= small_edge_limit:
        # MEASURED size gate (not an assumption): the pair graph holds
        # only near-dup docs, one row per verified pair — tiny relative
        # to the corpus.  Below the limit (~50 MB driver heap) the
        # distributed fixpoint is pure per-round scheduling overhead, so
        # solve the SAME min-label components locally and re-enter the
        # distributed finalize join unchanged.  Above it, the iterative
        # exchange loop below is the path; results are identical.
        tbl = pa.concat_tables(ray.get(edges.to_arrow_refs())) \
                .combine_chunks()
        node_ids, lbl = _local_components(
            tbl.column('src').to_numpy(zero_copy_only=False),
            tbl.column('dst').to_numpy(zero_copy_only=False))
        labels = ray.data.from_arrow(pa.table({
            'node': pa.array(node_ids, pa.int64()),
            'lbl': pa.array(lbl, pa.int64()),
            'bucket': pa.array(_bucket(node_ids, nb), pa.int64()),
        }))
    else:
        labels = _init_labels()
        converged = False
        for _ in range(max_iters):
            # round: attach labels to edge sources, then per-node min fold
            own = labels.map_batches(
                lambda b: pa.table({
                    'src': b.column('node'),
                    'dst': pa.nulls(b.num_rows, pa.int64()),
                    'bucket': b.column('bucket'),
                    'lbl': b.column('lbl')}),
                batch_format='pyarrow', zero_copy_batch=True)
            edge_rows = edges.map_batches(
                lambda b: b.append_column('lbl', pa.nulls(b.num_rows,
                                                          pa.int64())),
                batch_format='pyarrow', zero_copy_batch=True)
            cand = own.union(edge_rows).groupby('bucket').map_groups(
                _attach_bucket, batch_format='pyarrow')
            own2 = labels.map_batches(
                lambda b: pa.table({
                    'node': b.column('node'),
                    'lbl': b.column('lbl'),
                    'own': pa.array(np.ones(b.num_rows, bool), pa.bool_()),
                }), batch_format='pyarrow', zero_copy_batch=True)
            folded = cand.union(own2).map_batches(
                lambda b: b.append_column(
                    'bucket', pa.array(_bucket(b.column('node').to_numpy(
                        zero_copy_only=False), nb), pa.int64())),
                batch_format='pyarrow').groupby('bucket').map_groups(
                    _min_fold_bucket, batch_format='pyarrow') \
                .repartition(width).materialize()
            labels = folded.map_batches(_make_requeue(nb),
                                        batch_format='pyarrow')
            changed = folded.sum('changed') or 0
            if not changed:
                converged = True
                break
    if not converged:
        # no silent caps: an unconverged exit would emit intermediate
        # labels — multiple "survivors" per real cluster — and corpus_clean
        # would silently keep duplicates.  Diameter > max_iters means a
        # pathological chain component; raise loudly and name the knob.
        raise RuntimeError(
            'dedup_clusters: min-label propagation did not converge in '
            '%d rounds (a pair-graph component has hop diameter > %d); '
            'raise max_iters or pre-collapse exact dups first'
            % (max_iters, max_iters))

    doc_rows = entities.map_batches(_make_doc_rows(nb),
                                    batch_format='pyarrow',
                                    zero_copy_batch=True)
    lbl_rows = labels.map_batches(
        lambda b: pa.table({
            'node': b.column('node'),
            'lbl': b.column('lbl'),
            'is_doc': pa.array(np.zeros(b.num_rows, bool), pa.bool_()),
            'bucket': b.column('bucket')}),
        batch_format='pyarrow', zero_copy_batch=True)
    return doc_rows.union(lbl_rows).groupby('bucket').map_groups(
        _finalize_bucket, batch_format='pyarrow')


def embedding_dedup_clusters(sf_dir, threshold=0.42, num_buckets=64,
                             max_iters=50,
                             small_edge_limit=SMALL_EDGE_LIMIT):
    """SEMANTIC dedup: connected components over the exact
    embedding-cosine near-dup pair graph
    (:func:`~engine.ops.similarity.embedding_dup_pairs_blocked` — the
    broadcast-free 100 TB path; swap in ``embedding_dup_lsh`` as the
    subquadratic discovery tier when exactness isn't required), then
    the SAME min-label component solver as the text path.  Returns one
    row per embedding: (vec_id, cluster_id, is_survivor) — survivors
    are the semantic representatives a training run keeps."""
    from .similarity import embedding_dup_pairs_blocked

    pairs = embedding_dup_pairs_blocked(sf_dir, threshold).map_batches(
        lambda b: pa.table({'doc_id_a': b.column('vec_id_a'),
                            'doc_id_b': b.column('vec_id_b')}),
        batch_format='pyarrow', zero_copy_batch=True)
    vecs = read_table(sf_dir, 'embeddings', columns=['vec_id'],
                      min_blocks=pool()[1]).map_batches(
        lambda b: pa.table({'doc_id': b.column('vec_id')}),
        batch_format='pyarrow', zero_copy_batch=True)
    out = components_from_pairs(pairs, vecs, num_buckets=num_buckets,
                                max_iters=max_iters,
                                small_edge_limit=small_edge_limit)
    return out.map_batches(
        lambda b: pa.table({'vec_id': b.column('doc_id'),
                            'cluster_id': b.column('cluster_id'),
                            'is_survivor': b.column('is_survivor')}),
        batch_format='pyarrow', zero_copy_batch=True)


def corpus_clean(sf_dir, threshold=0.8, k=3, num_buckets=64):
    """END-TO-END training-corpus cleaning — the composite pipeline a
    100 TB pretraining-data run actually executes: keep documents that
    are BOTH (a) near-dup cluster representatives (minhash pair graph →
    connected components, :func:`dedup_clusters`) and (b) above the
    quality gate (token count + stopword ratio, textstats.doc_quality).

    Shape: the cluster side is filtered to survivors IN THE MAP STAGE
    (shrinking the exchange to one row per kept doc), the quality side
    is an embarrassingly-parallel scoring pass, and ONE bucketed
    co-partition joins them — a C++ hash join per bucket, no broadcast,
    nothing driver-side.  Output: (doc_id, lang, n_tokens,
    stopword_ratio) of the cleaned corpus."""
    from .textstats import quality_signals

    nb = num_buckets

    def quality_rows(batch: pa.Table) -> pa.Table:
        text = batch.column('text')
        # THE shared gate (textstats.quality_signals) — corpus_clean's
        # oracle and tests assert equality with doc_quality's is_quality
        n_tokens, _n_stop, ratio, keep = quality_signals(text)
        t = pa.table({
            'doc_id': batch.column('doc_id'),
            'lang': batch.column('lang'),
            'n_tokens': n_tokens,
            'stopword_ratio': pa.array(ratio, pa.float64()),
        }).filter(pa.array(keep, pa.bool_()))
        ids = t.column('doc_id').to_numpy(zero_copy_only=False)
        return t.append_column('bucket', pa.array(_bucket(ids, nb),
                                                  pa.int64()))

    def survivor_rows(batch: pa.Table) -> pa.Table:
        t = batch.filter(batch.column('is_survivor')).select(['doc_id'])
        n = t.num_rows
        ids = t.column('doc_id').to_numpy(zero_copy_only=False)
        return pa.table({
            'doc_id': t.column('doc_id'),
            'lang': pa.nulls(n, pa.string()),
            'n_tokens': pa.nulls(n, pa.int64()),
            'stopword_ratio': pa.nulls(n, pa.float64()),
            'bucket': pa.array(_bucket(ids, nb), pa.int64()),
        })

    def join_bucket(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        is_surv = pc.is_null(group.column('lang'))
        surv = group.filter(is_surv).select(['doc_id'])
        qual = group.filter(pc.invert(is_surv)) \
                    .select(['doc_id', 'lang', 'n_tokens', 'stopword_ratio'])
        return qual.join(surv, keys='doc_id', join_type='inner') \
                   .select(['doc_id', 'lang', 'n_tokens', 'stopword_ratio'])

    clusters = dedup_clusters(sf_dir, threshold, k, num_buckets)
    docs = read_table(sf_dir, 'documents',
                      columns=['doc_id', 'text', 'lang'],
                      min_blocks=pool()[1])
    both = docs.map_batches(quality_rows, batch_format='pyarrow',
                            zero_copy_batch=True) \
        .union(clusters.map_batches(survivor_rows, batch_format='pyarrow',
                                    zero_copy_batch=True))
    return both.groupby('bucket').map_groups(join_bucket,
                                             batch_format='pyarrow')


def dedup_cluster_sizes(sf_dir, threshold=0.8, k=3, num_buckets=64):
    """CLUSTER-SIZE HISTOGRAM of the near-dup graph — the distribution a
    dedup owner reads before choosing a survivor policy (a fat head of
    giant clusters means boilerplate; a long singleton tail means the
    threshold is too tight).  (cluster_size, n_clusters), integer-only.

    Shape: one row per (block, cluster) leaves the combiner, cluster
    sizes resolve exactly inside cluster-id buckets, and the histogram
    fold exchanges one row per (bucket, size) — nothing scales with the
    corpus except the first combiner pass."""
    nb = num_buckets

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.select(['cluster_id']).group_by('cluster_id') \
                 .aggregate([([], 'count_all')])
        g = g.rename_columns(['cluster_id', 'n'])
        ids = g.column('cluster_id').to_numpy(zero_copy_only=False)
        return g.append_column('bucket', pa.array(_bucket(ids, nb),
                                                  pa.int64()))

    def sizes(group: pa.Table) -> pa.Table:
        g = group.group_by('cluster_id').aggregate([('n', 'sum')])
        t = pa.table({'cluster_size': g.column('n_sum').cast(pa.int64())})
        h = t.group_by('cluster_size').aggregate([([], 'count_all')])
        h = h.rename_columns(['cluster_size', 'n_clusters'])
        return h.append_column('fbucket',
                               pa.array(np.zeros(h.num_rows, np.int64)))

    def hist(group: pa.Table) -> pa.Table:
        g = group.group_by('cluster_size').aggregate([('n_clusters',
                                                       'sum')])
        return pa.table({
            'cluster_size': g.column('cluster_size'),
            'n_clusters': g.column('n_clusters_sum').cast(pa.int64()),
        })

    return dedup_clusters(sf_dir, threshold=threshold, k=k,
                          num_buckets=num_buckets) \
        .map_batches(partial, batch_format='pyarrow',
                     zero_copy_batch=True) \
        .groupby('bucket').map_groups(sizes, batch_format='pyarrow') \
        .groupby('fbucket').map_groups(hist, batch_format='pyarrow')


def cluster_sizes_oracle_sql(threshold=0.8, k=3):
    from .oracles import clusters_oracle_sql
    return """
WITH cl AS ({cl}
), s AS (
  SELECT cluster_id, count(*)::BIGINT AS cluster_size FROM cl GROUP BY 1
)
SELECT cluster_size, count(*)::BIGINT AS n_clusters
FROM s GROUP BY cluster_size
""".format(cl=clusters_oracle_sql(threshold=threshold, k=k).strip())


def clean_token_budget(sf_dir, threshold=0.8, k=3, num_buckets=64):
    """THE pipeline-headline number: per language, how many documents
    and tokens survive end-to-end cleaning (:func:`corpus_clean` =
    near-dup survivor ∩ quality gate), and the surviving share of the
    raw token mass — what a pretraining-data owner reports when asked
    "how much training data do we actually have?".

    Both sides fold to per-(block, lang) integer partials before ONE
    tiny lang-keyed exchange; token_share is a single division of
    int64-exact operands, half-up r6."""
    from .common import round_half_up
    from .textstats import TOKEN_RE

    def kept(batch: pa.Table) -> pa.Table:
        g = batch.select(['lang', 'n_tokens']).group_by('lang') \
                 .aggregate([('n_tokens', 'sum'), ([], 'count_all')])
        g = g.rename_columns(['lang', 'tokens_kept', 'n_docs_kept'])
        z = pa.array(np.zeros(g.num_rows, np.int64))
        return pa.table({
            'lang': g.column('lang'),
            'n_docs_kept': g.column('n_docs_kept').cast(pa.int64()),
            'tokens_kept': g.column('tokens_kept').cast(pa.int64()),
            'n_docs': z, 'sum_tokens': z,
        })

    def raw(batch: pa.Table) -> pa.Table:
        t = pa.table({
            'lang': batch.column('lang'),
            'nt': pc.cast(pc.count_substring_regex(
                batch.column('text'), pattern=TOKEN_RE), pa.int64()),
        })
        g = t.group_by('lang').aggregate([('nt', 'sum'),
                                          ([], 'count_all')])
        g = g.rename_columns(['lang', 'sum_tokens', 'n_docs'])
        z = pa.array(np.zeros(g.num_rows, np.int64))
        return pa.table({
            'lang': g.column('lang'),
            'n_docs_kept': z, 'tokens_kept': z,
            'n_docs': g.column('n_docs').cast(pa.int64()),
            'sum_tokens': g.column('sum_tokens').cast(pa.int64()),
        })

    def fold(group: pa.Table) -> pa.Table:
        g = group.group_by('lang').aggregate(
            [('n_docs_kept', 'sum'), ('tokens_kept', 'sum'),
             ('n_docs', 'sum'), ('sum_tokens', 'sum')])
        tk = g.column('tokens_kept_sum').to_numpy(zero_copy_only=False) \
              .astype(np.int64)
        st = g.column('sum_tokens_sum').to_numpy(zero_copy_only=False) \
              .astype(np.int64)
        share = np.where(st > 0,
                         round_half_up(tk.astype(np.float64)
                                       / np.maximum(st, 1)
                                       .astype(np.float64), 6), 0.0)
        return pa.table({
            'lang': g.column('lang'),
            'n_docs': g.column('n_docs_sum').cast(pa.int64()),
            'n_docs_kept': g.column('n_docs_kept_sum').cast(pa.int64()),
            'sum_tokens': pa.array(st, pa.int64()),
            'tokens_kept': pa.array(tk, pa.int64()),
            'token_share': pa.array(share, pa.float64()),
        })

    kept_ds = corpus_clean(sf_dir, threshold=threshold, k=k,
                           num_buckets=num_buckets) \
        .map_batches(kept, batch_format='pyarrow', zero_copy_batch=True)
    raw_ds = read_table(sf_dir, 'documents', columns=['lang', 'text'],
                        min_blocks=pool()[1]) \
        .map_batches(raw, batch_format='pyarrow', zero_copy_batch=True)
    return kept_ds.union(raw_ds) \
        .groupby('lang').map_groups(fold, batch_format='pyarrow')


def token_budget_oracle_sql(threshold=0.8, k=3):
    from .oracles import corpus_clean_oracle_sql
    return r"""
WITH cc AS ({cc}
), kk AS (
  SELECT lang, count(*)::BIGINT AS n_docs_kept,
         sum(n_tokens)::BIGINT AS tokens_kept
  FROM cc GROUP BY lang
), rr AS (
  SELECT lang, count(*)::BIGINT AS n_docs,
         sum(len(regexp_extract_all(text, '\S+')))::BIGINT AS sum_tokens
  FROM documents GROUP BY lang
)
SELECT rr.lang, rr.n_docs, coalesce(kk.n_docs_kept, 0)::BIGINT
         AS n_docs_kept,
       rr.sum_tokens, coalesce(kk.tokens_kept, 0)::BIGINT AS tokens_kept,
       CASE WHEN rr.sum_tokens > 0
            THEN floor(CAST(coalesce(kk.tokens_kept, 0) AS DOUBLE)
                       / CAST(rr.sum_tokens AS DOUBLE) * 1000000 + 0.5)
                 / 1000000
            ELSE 0.0 END AS token_share
FROM rr LEFT JOIN kk USING (lang)
""".format(cc=corpus_clean_oracle_sql(threshold=threshold, k=k).strip())


def dedup_keep_best(sf_dir, threshold=0.8, k=3, num_buckets=64):
    """SURVIVOR-POLICY dedup — keep the LONGEST member of each near-dup
    cluster (argmax n_tokens, tie → min doc_id), not the min-id member:
    the policy a corpus owner actually wants when near-dups are
    truncated/rewrapped copies and the most complete version should
    survive.  One row per cluster: (cluster_id, doc_id, n_tokens,
    cluster_size) — doc_id is the kept document.

    Shape: the component solve is :func:`dedup_clusters` unchanged; one
    doc-id-bucketed co-partition attaches each doc's token count to its
    cluster row (C++ hash join per bucket, no broadcast), then one
    cluster-id-bucketed exchange resolves the argmax INSIDE the bucket
    (a cluster lives in exactly one bucket, so max/size/tie-break are
    exact).  Integer-only — nothing to drift vs the oracle's
    row_number() OVER (ORDER BY n_tokens DESC, doc_id)."""
    from .textstats import TOKEN_RE, _count_re

    nb = num_buckets

    def tok_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column('doc_id').to_numpy(zero_copy_only=False)
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'cluster_id': pa.nulls(batch.num_rows, pa.int64()),
            'n_tokens': _count_re(batch.column('text'), TOKEN_RE),
            'bucket': pa.array(_bucket(ids, nb), pa.int64()),
        })

    def cluster_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column('doc_id').to_numpy(zero_copy_only=False)
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'cluster_id': batch.column('cluster_id'),
            'n_tokens': pa.nulls(batch.num_rows, pa.int64()),
            'bucket': pa.array(_bucket(ids, nb), pa.int64()),
        })

    def attach(group: pa.Table) -> pa.Table:
        is_tok = pc.is_null(group.column('cluster_id'))
        tok = group.filter(is_tok).select(['doc_id', 'n_tokens'])
        cl = group.filter(pc.invert(is_tok)).select(['doc_id', 'cluster_id'])
        j = cl.join(tok, keys='doc_id', join_type='inner')
        cids = j.column('cluster_id').to_numpy(zero_copy_only=False)
        return j.append_column('cbucket', pa.array(_bucket(cids, nb),
                                                   pa.int64()))

    def best(group: pa.Table) -> pa.Table:
        g = group.group_by('cluster_id').aggregate(
            [('n_tokens', 'max'), ([], 'count_all')])
        j = group.select(['cluster_id', 'doc_id', 'n_tokens']) \
                 .join(g, keys='cluster_id', join_type='inner')
        j = j.filter(pc.equal(j.column('n_tokens'),
                              j.column('n_tokens_max')))
        g2 = j.group_by(['cluster_id', 'n_tokens_max', 'count_all']) \
              .aggregate([('doc_id', 'min')])
        return pa.table({
            'cluster_id': g2.column('cluster_id'),
            'doc_id': g2.column('doc_id_min').cast(pa.int64()),
            'n_tokens': g2.column('n_tokens_max').cast(pa.int64()),
            'cluster_size': g2.column('count_all').cast(pa.int64()),
        })

    clusters = dedup_clusters(sf_dir, threshold, k, num_buckets)
    docs = read_table(sf_dir, 'documents', columns=['doc_id', 'text'],
                      min_blocks=pool()[1])
    both = docs.map_batches(tok_rows, batch_format='pyarrow',
                            zero_copy_batch=True) \
        .union(clusters.map_batches(cluster_rows, batch_format='pyarrow',
                                    zero_copy_batch=True))
    return both.groupby('bucket').map_groups(attach,
                                             batch_format='pyarrow') \
               .groupby('cbucket').map_groups(best, batch_format='pyarrow')


def training_manifest(sf_dir, threshold=0.8, k=3, train_mod=10,
                      train_lt=8, val_eq=8, n_shards=4, num_buckets=64):
    """THE END-TO-END TRAINING-DATA PIPELINE in one query — the
    composition a pretraining run actually ships: clean the corpus
    (:func:`corpus_clean` = near-dup cluster survivor ∩ quality gate),
    assign each surviving document a deterministic train/val/test
    split (the split_manifest md5 rule) and a training shard
    (an independent digit of the same 63-bit key), and emit the
    per-(split, shard) document/token budget a trainer consumes.
    Output: (split, shard, n_docs, n_tokens).

    Shape: everything upstream is corpus_clean's exchange plan; this
    adds ONE stateless combiner pass (hash63 → split/shard, per-block
    group_by) and a tiny keyed fold over splits × shards rows.  Any
    node recomputes any document's (split, shard) with no
    coordination — resumable by construction.  All integers."""
    from .common import hash63_keys

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column('doc_id').to_numpy(zero_copy_only=False)
        hk = hash63_keys(ids)
        mod = hk % train_mod
        split = np.where(mod < train_lt, 'train',
                         np.where(mod == val_eq, 'val', 'test'))
        shard = (hk // train_mod) % n_shards
        t = pa.table({
            'split': pa.array(split, pa.string()),
            'shard': pa.array(shard.astype(np.int64), pa.int64()),
            'nt': batch.column('n_tokens'),
        })
        g = t.group_by(['split', 'shard']).aggregate(
            [('nt', 'sum'), ([], 'count_all')])
        return g.rename_columns(['split', 'shard', 'n_tokens', 'n_docs'])

    def fold(group: pa.Table) -> pa.Table:
        g = group.group_by(['split', 'shard']).aggregate(
            [('n_tokens', 'sum'), ('n_docs', 'sum')])
        return pa.table({
            'split': g.column('split'),
            'shard': g.column('shard'),
            'n_docs': g.column('n_docs_sum').cast(pa.int64()),
            'n_tokens': g.column('n_tokens_sum').cast(pa.int64()),
        })

    clean = corpus_clean(sf_dir, threshold=threshold, k=k,
                         num_buckets=num_buckets)
    return clean.map_batches(partial, batch_format='pyarrow',
                             zero_copy_batch=True) \
                .groupby('split').map_groups(fold, batch_format='pyarrow')


def source_quality_funnel(sf_dir, threshold=0.8, k=3, num_buckets=64):
    """PER-SOURCE CLEANING FUNNEL: raw docs → quality-gate passes →
    end-to-end survivors (quality ∩ near-dup representative, the
    corpus_clean membership) — the per-source health read that decides
    which crawl gets re-scoped.  Output: (source, n_docs, n_quality,
    n_clean, keep_rate r6 = n_clean / n_docs).

    Shape: ONE read of documents emits BOTH row kinds — per-block
    (source, n_docs, n_quality) combiners keyed by source hash, and
    quality-PASSING (doc_id, source) rows keyed by doc_id — unioned
    with the cluster-survivor rows (map-side filtered, the
    corpus_clean plan); per bucket one C++ hash join resolves the
    clean intersection; a tiny source-keyed fold finishes.  The only
    doc-cardinality exchange is the quality-passing side, the same
    width corpus_clean already pays."""
    from .common import round_half_up
    from .textstats import quality_signals, _string_bucket

    nb = num_buckets

    def doc_rows(batch: pa.Table) -> pa.Table:
        n_tokens, _ns, _ratio, keep = quality_signals(batch.column('text'))
        src = batch.column('source')
        ids = batch.column('doc_id').to_numpy(zero_copy_only=False)
        # kind 0: per-source combiner rows
        comb = pa.table({
            'source': src,
            'q': pa.array(keep.astype(np.int64), pa.int64()),
        }).group_by('source').aggregate([('q', 'sum'), ([], 'count_all')])
        comb = comb.rename_columns(['source', 'n_quality', 'n_docs'])
        # kind 1: quality-passing per-doc rows for the clean join
        passing = pa.table({
            'doc_id': pa.array(ids[keep], pa.int64()),
            'source': src.filter(pa.array(keep, pa.bool_())),
        })
        return pa.table({
            'kind': pa.array([0] * comb.num_rows
                             + [1] * passing.num_rows, pa.int64()),
            'source': pa.concat_arrays([
                comb.column('source').combine_chunks(),
                passing.column('source').combine_chunks()]),
            'doc_id': pa.concat_arrays([
                pa.nulls(comb.num_rows, pa.int64()),
                passing.column('doc_id').combine_chunks()]),
            'n_docs': pa.concat_arrays([
                comb.column('n_docs').cast(pa.int64()).combine_chunks(),
                pa.nulls(passing.num_rows, pa.int64())]),
            'n_quality': pa.concat_arrays([
                comb.column('n_quality').cast(pa.int64()).combine_chunks(),
                pa.nulls(passing.num_rows, pa.int64())]),
            'bucket': pa.concat_arrays([
                pa.array(_string_bucket(comb.column('source'), nb)),
                pa.array(_bucket(passing.column('doc_id').to_numpy(
                    zero_copy_only=False), nb), pa.int64())]),
        })

    def survivor_rows(batch: pa.Table) -> pa.Table:
        t = batch.filter(batch.column('is_survivor')).select(['doc_id'])
        ids = t.column('doc_id').to_numpy(zero_copy_only=False)
        n = t.num_rows
        return pa.table({
            'kind': pa.array(np.full(n, 2, np.int64)),
            'source': pa.nulls(n, pa.string()),
            'doc_id': t.column('doc_id'),
            'n_docs': pa.nulls(n, pa.int64()),
            'n_quality': pa.nulls(n, pa.int64()),
            'bucket': pa.array(_bucket(ids, nb), pa.int64()),
        })

    def bucket_fold(group: pa.Table) -> pa.Table:
        kinds = group.column('kind')
        comb = group.filter(pc.equal(kinds, 0)) \
                    .group_by('source').aggregate(
                        [('n_docs', 'sum'), ('n_quality', 'sum')])
        passing = group.filter(pc.equal(kinds, 1)) \
                       .select(['doc_id', 'source'])
        surv = group.filter(pc.equal(kinds, 2)).select(['doc_id'])
        clean = passing.join(surv, keys='doc_id', join_type='inner') \
                       .group_by('source').aggregate([([], 'count_all')])
        return pa.table({
            'source': pa.concat_arrays([
                comb.column('source').combine_chunks(),
                clean.column('source').combine_chunks()]),
            'n_docs': pa.concat_arrays([
                comb.column('n_docs_sum').cast(pa.int64())
                    .combine_chunks(),
                pa.array(np.zeros(clean.num_rows, np.int64))]),
            'n_quality': pa.concat_arrays([
                comb.column('n_quality_sum').cast(pa.int64())
                    .combine_chunks(),
                pa.array(np.zeros(clean.num_rows, np.int64))]),
            'n_clean': pa.concat_arrays([
                pa.array(np.zeros(comb.num_rows, np.int64)),
                clean.column('count_all').cast(pa.int64())
                     .combine_chunks()]),
        })

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by('source').aggregate(
            [('n_docs', 'sum'), ('n_quality', 'sum'), ('n_clean', 'sum')])
        nd = g.column('n_docs_sum').to_numpy(zero_copy_only=False) \
              .astype(np.int64)
        nc = g.column('n_clean_sum').to_numpy(zero_copy_only=False) \
              .astype(np.int64)
        return pa.table({
            'source': g.column('source'),
            'n_docs': pa.array(nd, pa.int64()),
            'n_quality': g.column('n_quality_sum').cast(pa.int64()),
            'n_clean': pa.array(nc, pa.int64()),
            'keep_rate': pa.array(round_half_up(
                nc.astype(np.float64) / nd.astype(np.float64), 6),
                pa.float64()),
        })

    clusters = dedup_clusters(sf_dir, threshold, k, num_buckets)
    docs = read_table(sf_dir, 'documents',
                      columns=['doc_id', 'source', 'text'],
                      min_blocks=pool()[1])
    both = docs.map_batches(doc_rows, batch_format='pyarrow',
                            zero_copy_batch=True) \
        .union(clusters.map_batches(survivor_rows, batch_format='pyarrow',
                                    zero_copy_batch=True))
    return both.groupby('bucket').map_groups(bucket_fold,
                                             batch_format='pyarrow') \
               .groupby('source').map_groups(final,
                                             batch_format='pyarrow')
