"""Actor-pool extraction stage (the north star's stateful map_batches).

``ExtractTurns`` is a callable CLASS for ``Dataset.map_batches``: the
corpus-invariant font state (AFM metrics, encoding maps — SURVEY.md
S3/F10/F11) is built ONCE per actor in ``__init__``; ``__call__`` runs the
pure per-row extraction kernel over a zero-copy Arrow batch.

Scale notes (100 TB design): per-row payloads are independent — no
cross-row state beyond the read-only shared tables, so the stage shards
arbitrarily; ``batch_size`` bounds actor heap (payloads decompress in-row,
nothing accumulates); output columns are plain Arrow arrays built once per
batch.
"""

import zlib

import pyarrow as pa

from engine.pdfcore.extract import SharedFontState, extract_turn

__all__ = ['ExtractTurns', 'assign_bucket', 'make_done_filter']


def _payload_key(payload):
    """LRU cache key: md5 of the payload CONTENT.  bytes payloads hash
    their own bytes (a shared constant key would silently serve another
    payload's extraction); None gets a distinct sentinel (extract_turn(None)
    is a constant, so one shared entry is correct there)."""
    import hashlib
    if isinstance(payload, str):
        return hashlib.md5(payload.encode('utf-8', 'replace')).digest()
    if isinstance(payload, (bytes, bytearray)):
        return hashlib.md5(payload).digest()
    return b'\x00none-payload'


def pin_arrow_threads():
    """pyarrow defaults BOTH its CPU and IO pools to the machine core count
    PER PROCESS — a full actor pool means cores² threads thrashing the box
    (measured: -19% Stage A throughput at 28 actors).  Every 1-CPU actor
    stage pins Arrow to its own core."""
    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)


class ExtractTurns(object):
    """``payload_lru``: per-actor LRU of extraction results keyed by payload
    md5.  Extraction is a pure function of the payload, so a repeated
    payload (boilerplate PDFs attached to many turns — common in web-scale
    transcript corpora) costs one md5 (~µs) instead of a full
    re-extraction (~ms).  Bounded by entry COUNT; set 0 to disable."""

    def __init__(self, payload_lru=None):
        pin_arrow_threads()
        self.shared = SharedFontState()
        if payload_lru is None:
            import os
            payload_lru = int(os.environ.get('GRAFT_PAYLOAD_LRU', '4096'))
        from collections import OrderedDict
        self._lru = OrderedDict() if payload_lru else None
        self._lru_cap = payload_lru
        self.lru_hits = 0

    def _extract(self, payload):
        if self._lru is None:
            r = extract_turn(payload, self.shared)
            return (r['text'], r['n_spans'], r['n_pages'],
                    r['decode_ok'], r['error'])
        key = _payload_key(payload)
        hit = self._lru.get(key)
        if hit is not None:
            self._lru.move_to_end(key)
            self.lru_hits += 1
            return hit
        r = extract_turn(payload, self.shared)
        row = (r['text'], r['n_spans'], r['n_pages'], r['decode_ok'], r['error'])
        self._lru[key] = row
        if len(self._lru) > self._lru_cap:
            self._lru.popitem(last=False)
        return row

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column('text').to_pylist()
        out_text = []
        n_spans = []
        n_pages = []
        decode_ok = []
        error = []
        for payload in texts:
            text, ns, np_, ok, err = self._extract(payload)
            out_text.append(text)
            n_spans.append(ns)
            n_pages.append(np_)
            decode_ok.append(ok)
            error.append(err)
        cols = {
            'conv_id': batch.column('conv_id'),
            'turn_idx': batch.column('turn_idx'),
            'text': pa.array(out_text, pa.string()),
            'n_spans': pa.array(n_spans, pa.int32()),
            'n_pages': pa.array(n_pages, pa.int32()),
            'decode_ok': pa.array(decode_ok, pa.bool_()),
            'error': pa.array(error, pa.string()),
        }
        if 'bucket' in batch.column_names:
            cols['bucket'] = batch.column('bucket')
        return pa.table(cols)


class ExtractSpans(object):
    """Actor stage emitting ONE ROW PER POSITIONED SPAN (the reference's
    ``glyph draw`` callback surface, U1) instead of per-turn text —
    the exploded detail table for layout-aware downstream consumers.

    Spans are a pure function of the payload (only conv_id/turn_idx differ
    between rows sharing a payload), so the same md5-keyed LRU as
    ``ExtractTurns`` applies; boilerplate-heavy corpora pay one extraction
    per distinct payload.  The cap defaults lower than the fulltext stage
    (a cached entry holds the whole span list, not one text string)."""

    def __init__(self, payload_lru=None):
        pin_arrow_threads()
        self.shared = SharedFontState()
        if payload_lru is None:
            import os
            payload_lru = int(os.environ.get('GRAFT_SPANS_LRU', '1024'))
        from collections import OrderedDict
        self._lru = OrderedDict() if payload_lru else None
        self._lru_cap = payload_lru
        self.lru_hits = 0

    def _spans(self, payload):
        if self._lru is None:
            return extract_turn(payload, self.shared,
                                collect_spans=True)['spans'] or ()
        key = _payload_key(payload)
        hit = self._lru.get(key)
        if hit is not None:
            self._lru.move_to_end(key)
            self.lru_hits += 1
            return hit
        spans = extract_turn(payload, self.shared,
                             collect_spans=True)['spans'] or ()
        self._lru[key] = spans
        if len(self._lru) > self._lru_cap:
            self._lru.popitem(last=False)
        return spans

    def __call__(self, batch: pa.Table) -> pa.Table:
        conv, turn, page, xs, ys, uni, cid, width = [], [], [], [], [], [], [], []
        conv_ids = batch.column('conv_id').to_pylist()
        turn_idxs = batch.column('turn_idx').to_pylist()
        for c, t, payload in zip(conv_ids, turn_idxs, batch.column('text').to_pylist()):
            for (pg, x, y, u, g_cid, g_w) in self._spans(payload):
                conv.append(c)
                turn.append(t)
                page.append(pg)
                xs.append(x)
                ys.append(y)
                uni.append(u)
                cid.append(g_cid)
                width.append(g_w)
        return pa.table({
            'conv_id': pa.array(conv, pa.string()),
            'turn_idx': pa.array(turn, pa.int32()),
            'page': pa.array(page, pa.int32()),
            'x': pa.array(xs, pa.float64()),
            'y': pa.array(ys, pa.float64()),
            'unicode': pa.array(uni, pa.string()),
            'cid': pa.array(cid, pa.int32()),
            'width': pa.array(width, pa.float64()),
        })


def shard_of(bucket, num_buckets, num_shards):
    """Contiguous bucket-range → spill shard mapping (works elementwise on
    numpy arrays too)."""
    return bucket * num_shards // num_buckets


class ExtractAndSpill(ExtractTurns):
    """Extract + external-shuffle spill in one actor stage.

    Instead of a Ray all-to-all (sort/groupby) after extraction, each
    actor writes its output block straight to shared storage, sorted by
    ``bucket`` with per-bucket-sized row groups so the per-bucket
    compaction stage can prune row groups via parquet min/max stats.
    Returns one tiny stat row per block — the object store never carries
    the shuffled payload, and there is no global barrier operator.

    The spill dir is SHARDED by contiguous bucket range
    (``shard-XXX/`` = buckets ``[s·B/S, (s+1)·B/S)``): each block writes
    one file per non-empty shard (cheap slices of the already-sorted
    table), and a compaction task lists/footer-scans ONLY its bucket's
    shard.  At 100 TB (~400k spill blocks) an unsharded dir makes every
    compact task scan 400k footers; with S shards it scans 400k/S.  Pick
    S so footer-scan time ≪ bucket read time (S ≈ 64–1024 at that scale);
    file count per block grows by ≤ S, so keep S ≪ rows-per-block.
    """

    def __init__(self, spill_dir, num_buckets, payload_lru=None, num_shards=1):
        super().__init__(payload_lru=payload_lru)
        self.spill_dir = spill_dir
        self.num_buckets = num_buckets
        self.num_shards = num_shards

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib
        import os
        import numpy as np
        import pyarrow.parquet as pq
        out = super().__call__(batch)
        ordered = out.sort_by([('bucket', 'ascending'),
                               ('conv_id', 'ascending'),
                               ('turn_idx', 'ascending')])
        # Deterministic spill name = content hash of the batch's row keys:
        # a Ray-retried task OVERWRITES its own prior (possibly published)
        # spill files via os.replace instead of duplicating rows under a
        # fresh random name.  (conv_id, turn_idx) is unique per row, so
        # disjoint batches can never collide; the same batch always has
        # the same non-empty shard set, so no orphan from the first try.
        key = hashlib.md5()
        key.update('\x00'.join(ordered.column('conv_id').to_pylist()).encode('utf-8'))
        key.update(ordered.column('turn_idx').to_numpy(zero_copy_only=False).tobytes())
        digest = key.hexdigest()
        buckets_per_shard = max(1, self.num_buckets // self.num_shards)
        shards = shard_of(
            ordered.column('bucket').to_numpy(zero_copy_only=False).astype(np.int64),
            self.num_buckets, self.num_shards)
        present, starts = np.unique(shards, return_index=True)
        bounds = np.append(starts, len(shards))
        for i, s in enumerate(present):                # zero-copy slices of
            part = ordered.slice(bounds[i], bounds[i + 1] - bounds[i])
            rg = max(32, part.num_rows // buckets_per_shard)
            sdir = os.path.join(self.spill_dir, 'shard-%03d' % s)
            os.makedirs(sdir, exist_ok=True)
            fname = os.path.join(sdir, 'spill-%s.parquet' % digest)
            tmp = fname + '.tmp'
            pq.write_table(part, tmp, row_group_size=rg)
            os.replace(tmp, fname)
        import pyarrow.compute as pc
        failures = pc.sum(pc.cast(pc.invert(ordered.column('decode_ok')),
                                  pa.int64())).as_py() or 0
        return pa.table({
            'rows': pa.array([ordered.num_rows], pa.int64()),
            'decode_failures': pa.array([failures], pa.int64()),
        })


def assign_bucket(num_buckets):
    """Cheap stateless stage: bucket = crc32(conv_id) % num_buckets.

    Deterministic across processes/runs (unlike Python's salted hash()), so
    resume can skip finished buckets before the expensive extraction stage.
    Vectorized via dictionary-encode: crc32 runs once per DISTINCT conv_id
    in the batch (conversations repeat ~dozens of turns), the per-row
    expansion is a numpy gather on the dictionary indices.
    """
    import numpy as np
    import pyarrow.compute as pc

    def fn(batch: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(batch.column('conv_id')).combine_chunks()
        lut = np.fromiter(
            (zlib.crc32(s.encode('utf-8')) % num_buckets
             for s in enc.dictionary.to_pylist()),
            dtype=np.int32, count=len(enc.dictionary))
        buckets = pa.array(lut[enc.indices.to_numpy(zero_copy_only=False)],
                           pa.int32())
        return batch.append_column('bucket', buckets)
    return fn


def make_done_filter(done_buckets):
    """Drop rows whose bucket already has a manifest row (resume path)."""
    done = frozenset(done_buckets)

    def fn(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        mask = pc.invert(pc.is_in(batch.column('bucket'),
                                  value_set=pa.array(sorted(done), pa.int32())))
        return batch.filter(mask)
    return fn
