"""Extraction stages over zero-copy Arrow batches, run in plain tasks.

``run_extraction``'s Stage A tasks and the tasks behind
``build_extract_dataset`` call ``ExtractTurns()`` on their work unit,
those behind ``build_spans_dataset`` ``ExtractSpans()``.  The spill that
follows Stage A's extraction is ``pipeline``'s; this module reads and
writes no file.  The corpus-invariant font state (AFM metrics, encoding
maps — SURVEY.md S3/F10/F11) is built once per process
(``font_state``); no extraction result outlives its unit.

Scale notes (100 TB design): per-row payloads are independent — no
cross-row state beyond the read-only shared tables, so the stage shards
arbitrarily; a task's heap is one work unit's rows, about
``pipeline.UNIT_BYTES`` of input whatever the row-group size (payloads
decompress in-row, nothing accumulates).  A batch is
extracted once per DISTINCT payload (one Arrow hash pass over its
``text`` column), and each output column is one Arrow ``take`` of the
per-distinct results, so no per-row Python runs between the kernel
calls.  A payload that repeats across units is extracted once per unit.

Column helpers (``num_array``, ``bool_array``, ``str_array``,
``np_view``): Stage A and Stage B build every Arrow column from numpy
buffers with ``pa.Array.from_buffers``, and read every column as a numpy
view of its data buffer.  pyarrow's own conversions of Python or numpy
values (``pa.array``, ``Array.to_numpy``, a Python scalar as a compute
argument) import pandas on first use, ~40 MB resident and ~0.2 s per
worker process, for nothing the engine uses.  The builders give the
types ``pa.array`` gives, so the part files' schema is unchanged, and
raise where numpy alone would wrap an int or an offset.
"""

import functools
import itertools
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from engine.pdfcore.extract import SharedFontState, extract_turn

__all__ = ['ExtractTurns', 'ExtractSpans', 'assign_bucket',
           'make_done_filter', 'num_array', 'bool_array', 'str_array',
           'np_view']


@functools.lru_cache(maxsize=None)
def font_state():
    """This process's ``SharedFontState``, built on first use.  It is
    corpus-invariant, so every job in the process shares it."""
    return SharedFontState()


def pin_arrow_threads():
    """pyarrow defaults BOTH its CPU and IO pools to the machine core count
    PER PROCESS — one 1-CPU worker per core means cores² threads thrashing
    the box (measured: -19% Stage A throughput at 28 workers).  Every 1-CPU
    extraction stage pins Arrow to its own core."""
    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)


_NUMERIC = {pa.int32(): np.int32, pa.int64(): np.int64,
            pa.float64(): np.float64}
MAX_STR_BYTES = (1 << 31) - 1   # the last int32 offset of a pa.string()


def num_array(values, type):
    """An int32, int64 or float64 array of ``values`` (no None), equal to
    what ``pa.array`` gives for them, over one numpy buffer.  An int out of
    the type's range raises ``OverflowError`` (numpy alone would wrap it)."""
    dtype = np.dtype(_NUMERIC[type])
    nd = np.asarray(values)
    if nd.dtype != dtype and dtype.kind == 'i' and nd.size:
        info = np.iinfo(dtype)
        if nd.min() < info.min or nd.max() > info.max:
            raise OverflowError('value out of range for %s' % type)
    nd = np.ascontiguousarray(nd, dtype)
    return pa.Array.from_buffers(type, len(nd), [None, pa.py_buffer(nd)])


def bool_array(values):
    """A bool array of ``values`` (no None), bit-packed by numpy."""
    nd = np.asarray(values, np.bool_)
    return pa.Array.from_buffers(pa.bool_(), len(nd), [
        None, pa.py_buffer(np.packbits(nd, bitorder='little'))])


def str_array(values):
    """A ``pa.string()`` array of ``values``: each str strictly UTF-8
    encoded, and None a null.  Text past ``MAX_STR_BYTES`` in all raises
    ``OverflowError``: an int32 offset never wraps."""
    data = [b'' if v is None else v.encode('utf-8') for v in values]
    n = len(data)
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(np.fromiter(map(len, data), np.int64, n), out=offsets[1:])
    if offsets[-1] > MAX_STR_BYTES:
        raise OverflowError('%d bytes of text do not fit a pa.string()'
                            % offsets[-1])
    present = np.fromiter((v is not None for v in values), np.bool_, n)
    nulls = n - int(present.sum())
    valid = (pa.py_buffer(np.packbits(present, bitorder='little'))
             if nulls else None)
    return pa.Array.from_buffers(
        pa.string(), n, [valid, pa.py_buffer(offsets.astype(np.int32)),
                         pa.py_buffer(b''.join(data))], null_count=nulls)


def np_view(arr, dtype):
    """A read-only numpy view of ``arr``'s values (chunks combined first):
    ``dtype`` must be as wide as its fixed-width type, and a null raises.
    For a bool column, view ``pc.cast(column, pa.int8())``."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.chunk(0) if arr.num_chunks == 1 else arr.combine_chunks()
    if arr.null_count:
        raise ValueError('np_view of a column with %d nulls' % arr.null_count)
    dtype = np.dtype(dtype)
    if dtype.itemsize * 8 != arr.type.bit_width:
        raise TypeError('np_view of %s as %s' % (arr.type, dtype))
    return np.frombuffer(arr.buffers()[1], dtype, len(arr),
                         arr.offset * dtype.itemsize)


class _CachedStage(object):
    """Font state plus the batch's payload dedup: extraction is a pure
    function of the payload, so a call runs it once per distinct payload
    (``_extract_distinct``) and keeps no result after it."""

    def __init__(self):
        self.shared = font_state()
        self.lru_hits = 0   # rows a repeat served; perfbench reads the name

    def _extract_distinct(self, column, extract):
        """``extract`` of each distinct payload of ``column``, and per row
        the index of its payload's result (an Arrow int32 array).  One
        Arrow hash pass finds the distinct payloads; a null payload is a
        value of its own, because ``extract_turn(None)`` has a result."""
        enc = pc.dictionary_encode(column.combine_chunks(),
                                   null_encoding='encode')
        results = [extract(payload) for payload in enc.dictionary.to_pylist()]
        self.lru_hits += len(enc.indices) - len(results)
        return results, enc.indices


class ExtractTurns(_CachedStage):
    """One output row per turn: text, span/page counts, decode status.
    The kernel runs once per distinct payload of the batch, and each
    result column is one ``take`` of the rows' payload indices."""

    def _extract(self, payload):
        r = extract_turn(payload, self.shared)
        return (r['text'], r['n_spans'], r['n_pages'], r['decode_ok'], r['error'])

    def __call__(self, batch: pa.Table) -> pa.Table:
        results, idx = self._extract_distinct(batch.column('text'),
                                              self._extract)
        text, n_spans, n_pages, decode_ok, error = (
            zip(*results) if results else [()] * 5)
        return pa.table({
            'conv_id': batch.column('conv_id'),
            'turn_idx': batch.column('turn_idx'),
            'text': str_array(text).take(idx),
            'n_spans': num_array(n_spans, pa.int32()).take(idx),
            'n_pages': num_array(n_pages, pa.int32()).take(idx),
            'decode_ok': bool_array(decode_ok).take(idx),
            'error': str_array(error).take(idx),
        })


class ExtractSpans(_CachedStage):
    """ONE ROW PER POSITIONED SPAN (the reference's ``glyph draw`` callback
    surface, U1) instead of per-turn text — the exploded detail table for
    layout-aware downstream consumers.

    Spans are a pure function of the payload (only conv_id/turn_idx differ
    between rows sharing a payload), so the kernel runs once per distinct
    payload of the batch.  The distinct payloads' span lists are flattened
    into columns once, and each row's spans are a ``take`` of its
    payload's span range."""

    def _spans(self, payload):
        return extract_turn(payload, self.shared, collect_spans=True)['spans'] or ()

    def __call__(self, batch: pa.Table) -> pa.Table:
        spans, idx = self._extract_distinct(batch.column('text'), self._spans)
        flat = list(itertools.chain.from_iterable(spans))
        page, xs, ys, uni, cid, width = zip(*flat) if flat else [()] * 6
        counts = np.fromiter(map(len, spans), np.int64, len(spans))
        first = np.cumsum(counts) - counts      # a payload's first flat span
        idx = np_view(idx, np.int32)
        per_row = counts[idx]
        row_first = np.cumsum(per_row) - per_row
        # output span k of row r is flat span first[idx[r]] + k - row_first[r]
        at = num_array(np.arange(per_row.sum()) +
                       np.repeat(first[idx] - row_first, per_row), pa.int64())
        keys = batch.select(['conv_id', 'turn_idx']).take(num_array(
            np.repeat(np.arange(len(idx)), per_row), pa.int64()))
        return pa.table({
            'conv_id': keys.column('conv_id').cast(pa.string()),
            'turn_idx': keys.column('turn_idx').cast(pa.int32()),
            'page': num_array(page, pa.int32()).take(at),
            'x': num_array(xs, pa.float64()).take(at),
            'y': num_array(ys, pa.float64()).take(at),
            'unicode': str_array(uni).take(at),
            'cid': num_array(cid, pa.int32()).take(at),
            'width': num_array(width, pa.float64()).take(at),
        })


def assign_bucket(num_buckets):
    """Cheap stateless stage: bucket = crc32(conv_id) % num_buckets.

    Deterministic across processes/runs (unlike Python's salted hash()), so
    resume can skip finished buckets before the expensive extraction stage.
    Vectorized via dictionary-encode: crc32 runs once per DISTINCT conv_id
    in the batch (conversations repeat ~dozens of turns), the per-row
    expansion is a numpy gather on the dictionary indices.
    """
    def fn(batch: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(batch.column('conv_id')).combine_chunks()
        lut = np.fromiter(
            (zlib.crc32(s.encode('utf-8')) % num_buckets
             for s in enc.dictionary.to_pylist()),
            dtype=np.int32, count=len(enc.dictionary))
        buckets = num_array(lut[np_view(enc.indices, np.int32)], pa.int32())
        return batch.append_column('bucket', buckets)
    return fn


def make_done_filter(done_buckets):
    """Drop rows whose bucket already has a manifest row (resume path)."""
    done = frozenset(done_buckets)

    def fn(batch: pa.Table) -> pa.Table:
        mask = pc.invert(pc.is_in(batch.column('bucket'),
                                  value_set=num_array(sorted(done), pa.int32())))
        return batch.filter(mask)
    return fn
