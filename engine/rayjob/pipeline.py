"""The flagship pipeline: transcripts → per-turn extraction → ordered,
resumable, partitioned output (north star / north rule).

Dataflow of the resumable sink ``run_extraction``: plain Ray Core tasks
(``@ray.remote(num_cpus=1)``) that the driver submits and collects with
``ray.wait`` (at most ``concurrency`` tasks in flight, or 2 × the cluster's
CPUs by default), no driver-side row loops:

  Stage A (one task per work unit):
    list_input(input)                              # names and sizes, once:
           the manifest's input fingerprint and Stage A's file set
    plan_units(input)                              # from the footers: the
           input cut at equal byte offsets into max(cap, ceil(bytes /
           UNIT_BYTES)) spans of row-group pieces, across files
    → read unit (conv_id, turn_idx, text)          # streamed: no row past
           a piece's end is decoded
      → assign_bucket                              # cheap crc32 bucketing
      → [resume filter: drop finished buckets]     # BEFORE the heavy stage
      → ExtractTurns, then _spill                  # the unit is extracted,
           sorted by bucket, and SPILLED to shared storage as one
           uncompressed Arrow IPC file, named after the unit; a task
           returns only its row count
  Stage B (one task per shard of contiguous buckets, all at once: one wave):
    _compact_shard(its not-yet-done buckets)       # list and memory-map
           every spill file once; a bucket's rows in a file are binary
           searches of its bucket column; runs of contiguous
           buckets of at most COMPACT_MAX_ROWS rows (or one bucket above
           it) are sliced from every file and concatenated, their indices
           sorted once by (bucket, conv_id, turn_idx), and their rows
           taken at most COMPACT_MAX_ROWS at a time; each bucket → one
           ParquetWriter → atomic tmp+rename part file → one lineage row,
           which the driver appends to the manifest as soon as the task
           returns

Why Ray Core and not Ray Data: the sink uses a Dataset only as a map, and
its shuffle is external (below), so Ray Data's executor bought nothing and
cost a fixed ~2 s on a session's first job plus two resident actors
(``_StatsActor`` and ``AutoscalingRequester``, ~290 MB together).  On
plain tasks perfbench's seed-7 ``boilerplate`` went from ~5.4k to ~17.7k
turns/s, ``setup_s`` from ~8.5 to ~5.1 s and peak RSS from ~1.19 to
~0.75 GB (1 vCPU, Ray at 2 CPUs).

The driver contract's ``build_extract_dataset`` and ``build_spans_dataset``
run the same Stage A: one task per ``plan_units`` unit reads it with the
sink's reader and applies ``ExtractTurns`` or ``ExtractSpans`` with no
spill, and ``ray.data.from_arrow_refs`` wraps the task results as a
materialized Dataset, one block per unit.  They import ``ray.data`` when
called, so importing this module does not load it.

Shuffle accounting: the all-to-all exchange is EXTERNAL — through the
shared filesystem, like Spark's shuffle files, with its layout owned by
``_spill`` and ``_compact_shard`` alone — so no Ray AllToAll barrier
operator sits between extraction and write, the object store never holds
the shuffled payload, and both stages are embarrassingly parallel (Stage
A per unit, Stage B per shard).  A job writes one spill file per unit
that has rows, sorted by bucket, and each Stage B task binary-searches
every file for its buckets' rows, so the file count does not grow with
the shard count.
Bucket keys are uniform crc32 hashes: a single skewed conversation cannot
skew a partition beyond its own size.  A shard is only the driver's
grouping of contiguous buckets into one Stage B task; nothing on disk is
split by it.  Stage B's width is ``num_shards`` = min(isqrt(num_buckets)
// 2, the cluster's CPUs), at least 1 (``_num_shards``: 2 at 64 buckets
on 2 CPUs, 223–316 at 200–400k buckets on a cluster of that many CPUs),
not ``num_buckets``: a single bucket is ~10 ms of work on small jobs,
less than the cost of dispatching a task for it, and with no more shards
than CPUs Stage B runs as one wave of tasks.  The cap is the cluster's
CPUs, not a caller's ``concurrency``.  At 100 TB: pick num_buckets so
each bucket ≈ a few hundred MB; on a cluster with fewer CPUs than
isqrt(num_buckets) // 2, a shard (and the redo of a failed Stage B task)
grows by that ratio.  Spill locality is whatever the cluster's shared
store gives (the same trade Spark/MapReduce external shuffles make).

Skew (the north rule's long-conversation concern): the COMPUTE stage is
per-row — extraction never groups by conv_id — so a million-turn
conversation parallelizes exactly like a million one-turn conversations
and no salting is needed where it matters most.  The only key-grouped
stage is per-bucket compaction, where a conversation's rows all land in
one crc32 bucket: skew there is capped at the size of the single largest
conversation.  A bucket above ``COMPACT_MAX_ROWS`` is a window of its own,
written in sorted takes of at most that many rows through one
ParquetWriter, so a task's memory is O(``COMPACT_MAX_ROWS``) plus the
bucket's sort indices, not O(bucket).
"""

import glob
import itertools
import math
import os
import shutil
import time
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

import ray

from .extract_stage import (ExtractTurns, ExtractSpans, assign_bucket,
                            make_done_filter, np_view, pin_arrow_threads)
from . import checkpoint

__all__ = ['build_extract_dataset', 'build_spans_dataset', 'run_extraction',
           'default_concurrency', 'list_input', 'plan_units']


COMPACT_MAX_ROWS = 2000000   # Stage B's rows per window and per take
SORT_KEYS = [('bucket', 'ascending'), ('conv_id', 'ascending'),
             ('turn_idx', 'ascending')]
COLUMNS = ['conv_id', 'turn_idx', 'text']
READ_BUFFER = 1 << 20     # a Stage A task streams its unit in 1 MiB reads
UNIT_BYTES = 128 << 20    # a Stage A unit's share of the input's bytes


def default_concurrency():
    """The extraction task cap: the cluster's logical CPU count.  Without a
    ``concurrency``, ``run_extraction`` keeps at most twice this many tasks
    in flight, one running and one queued per CPU."""
    return max(1, int(ray.cluster_resources().get('CPU', 1)))


def shard_of(bucket, num_buckets, num_shards):
    """The shard (Stage B task) of a bucket: contiguous bucket ranges."""
    return bucket * num_shards // num_buckets


def _num_shards(num_buckets, cpus):
    """Shards (= Stage B tasks) of a job: isqrt(num_buckets) // 2,
    but no more than ``cpus``, so Stage B runs as one wave; at least 1."""
    return max(1, min(math.isqrt(num_buckets) // 2, cpus))


def _dataset(input_path, cls):
    """A materialized Dataset of ``cls``'s rows for the input: one Stage A
    task per ``plan_units`` unit, each a block, in input order."""
    import ray.data
    if not ray.is_initialized():
        ray.init()                 # local or RAY_ADDRESS
    fs, units = plan_units(input_path, default_concurrency())
    return ray.data.from_arrow_refs(
        [_rows_task.remote(fs, unit, cls) for unit in units])


def build_extract_dataset(input_path):
    """Dataset of turns_out rows (no write, no ordering shuffle)."""
    return _dataset(input_path, ExtractTurns)


def build_spans_dataset(input_path):
    """Dataset of positioned spans, one row per drawn glyph."""
    return _dataset(input_path, ExtractSpans)


def list_input(input_path):
    """The Parquet input's files, listed once: ``(filesystem, files)``
    with ``files`` a list of ``(path, relative path, size)`` sorted by
    path: the set the sink and both Datasets read.  The rules are
    ``pyarrow.dataset``'s: a directory is walked recursively, a file under
    a path part that starts with ``_`` or ``.`` is skipped, and any
    extension is kept; a file path is that one file.  Names and sizes
    only: no footer is read."""
    import pyarrow.fs as pafs
    if '://' in input_path:
        fs, root = pafs.FileSystem.from_uri(input_path)
    else:
        fs, root = pafs.LocalFileSystem(), input_path
    prefix = root.rstrip('/') + '/'
    info = fs.get_file_info(root)
    if info.type == pafs.FileType.File:
        return fs, [(info.path, info.base_name, info.size)]
    if info.type != pafs.FileType.Directory:
        raise FileNotFoundError(input_path)
    files = []
    for f in fs.get_file_info(pafs.FileSelector(root, recursive=True)):
        rel = f.path[len(prefix):]
        if f.is_file and not any(part.startswith(('_', '.'))
                                 for part in rel.split('/')):
            files.append((f.path, rel, f.size))
    return fs, sorted(files)


def plan_units(input_path, cap, listing=None):
    """Stage A work units of the Parquet input, from the file footers, and
    the filesystem to read them with.  The files are ``listing``, or
    ``list_input(input_path)`` when it is None.  A unit is a contiguous
    span of the input: a tuple of ``(path, row_group, start, stop)`` pieces
    in file order, then row-group order.  Each row group's
    ``total_byte_size`` is spread evenly over its rows, and the input is cut
    at equal byte offsets into max(cap, ceil(bytes / UNIT_BYTES)) units, at
    most one per row, each cut at the row start nearest its offset.  So an
    input smaller than cap x UNIT_BYTES is cap units (3 one-group
    files of 1,000 rows at cap 2 give 2 units of ~1,500 rows, the first
    ending inside the second file; 448 two-row files give 2 units, not
    448), and a large input is units of about UNIT_BYTES, whatever
    row-group size its writer chose.  Row groups with no rows are skipped,
    no unit is empty, and an input with no rows has no unit.  A file that
    lacks one of ``COLUMNS`` or types it unlike the first file raises."""
    fs, files = listing or list_input(input_path)
    groups = []                    # (path, row group, rows, bytes)
    want = None                    # the first file's types by column
    for path, _, _ in files:
        meta = pq.read_metadata(path, filesystem=fs)
        types = {f.name: f.type for f in meta.schema.to_arrow_schema()}
        want = want or types
        for name in COLUMNS:
            if name not in types:
                raise ValueError('%s has no column %r' % (path, name))
            if types[name] != want[name]:
                raise ValueError('%s: column %r is %s, not %s as in %s' % (
                    path, name, types[name], want[name], files[0][0]))
        for rg in range(meta.num_row_groups):
            g = meta.row_group(rg)
            if g.num_rows:
                groups.append((path, rg, g.num_rows,   # a writer may
                               max(g.total_byte_size, 1)))   # record 0
    total = sum(g[3] for g in groups)
    k = min(sum(g[2] for g in groups), max(cap, -(-total // UNIT_BYTES)))
    units, unit, i, seen = [], [], 1, 0   # cut i is at byte total * i / k
    for path, rg, n, b in groups:
        lo = 0
        while i < k and total * i < (seen + b) * k:    # cut i is in here:
            hi = ((2 * (total * i - seen * k) * n + k * b)   # its nearest
                  // (2 * k * b))                            # row start
            i += 1
            if hi > lo:
                unit.append((path, rg, lo, hi))
                lo = hi
            if unit:
                units.append(tuple(unit))
                unit = []
        if lo < n:
            unit.append((path, rg, lo, n))
        seen += b
    if unit:
        units.append(tuple(unit))
    return fs, units


def _read_range(pf, rg, start, stop):
    """Rows ``[start, stop)`` of row group ``rg``, read in batches of the
    range's size: no row past ``stop`` is decoded, and memory holds at
    most two such batches, not the whole row group."""
    parts, at = [], 0
    for batch in pf.iter_batches(batch_size=stop - start, row_groups=[rg],
                                 columns=COLUMNS):
        lo, hi = max(start - at, 0), min(stop - at, batch.num_rows)
        if hi > lo:
            parts.append(batch.slice(lo, hi - lo))
        at += batch.num_rows
        if at >= stop:
            break
    return pa.Table.from_batches(parts)


def _read_unit(fs, unit):
    """One unit's columns: its pieces' rows, in order.  Each file is opened
    once, as a buffered stream, not a pre-buffered row group: the read and
    its decoding stop at each piece's end."""
    parts = []
    for path, pieces in itertools.groupby(unit, key=lambda piece: piece[0]):
        with pq.ParquetFile(path, filesystem=fs, pre_buffer=False,
                            buffer_size=READ_BUFFER) as pf:
            parts.extend(_read_range(pf, rg, start, stop)
                         for _, rg, start, stop in pieces)
    return pa.concat_tables(parts)


def _extract_rows(fs, unit, cls):
    """Dataset task: one unit's rows through ``cls()``, with no spill."""
    pin_arrow_threads()
    return cls()(_read_unit(fs, unit))


def _extract_unit(fs, unit, prep, spill_dir):
    """Stage A task: read one unit's columns, apply ``prep`` (the
    driver-built bucketer, then the finished-bucket filter on resume),
    extract what is left with ``ExtractTurns()`` and spill it as one file
    keyed by ``unit``.  Returns the rows spilled: 0, with no kernel call
    and no spill file, when every row is in a finished bucket."""
    pin_arrow_threads()
    tbl = _read_unit(fs, unit)
    for fn in prep:
        tbl = fn(tbl)
    if not tbl.num_rows:
        return 0
    out = ExtractTurns()(tbl).append_column('bucket', tbl.column('bucket'))
    _spill(out, unit, spill_dir)
    return out.num_rows


def _spill(out, unit, spill_dir):
    """Stage A's half of the exchange: ``out`` (extracted rows with their
    ``bucket``) sorted by ``SORT_KEYS`` and written as one uncompressed
    Arrow IPC file, ``spill-<md5 of repr(unit)>.arrow``, published by tmp +
    ``os.replace``.  Rows stay contiguous per bucket, so every Stage B
    task finds its buckets' rows in the file with a binary search.  The
    name is the unit's, not a random one: a Ray-retried task OVERWRITES
    its earlier file instead of duplicating rows, and two units never
    collide, even when two input files hold the same rows."""
    import hashlib
    ordered = out.sort_by(SORT_KEYS)
    digest = hashlib.md5(repr(unit).encode('utf-8')).hexdigest()
    fname = os.path.join(spill_dir, 'spill-%s.arrow' % digest)
    tmp = fname + '.tmp'
    with pa.ipc.new_file(tmp, ordered.schema) as writer:
        writer.write_table(ordered)
    os.replace(tmp, fname)


def _compact_shard(spill_dir, out_dir, buckets, max_rows=COMPACT_MAX_ROWS):
    """Stage B task: the listed ``buckets`` of the spill → part files;
    returns their manifest rows as dicts (an Arrow table in a task result
    would make the driver import ``ray.data`` to deserialise it).

    The spill files (one per Stage A unit) are listed once and each is
    memory-mapped once; a bucket's rows in a file are a binary search of
    that file's ``bucket`` column, so a task reads only its buckets' rows
    of each file.  The buckets are cut into windows: runs of
    ascending buckets whose rows sum to at most ``max_rows``, or one
    bucket above it.  A window is every file sliced to its bucket range
    and concatenated, with one stable sort of its indices by
    ``SORT_KEYS``; its rows are taken in that order ``max_rows`` at a
    time, and each bucket streams through one ParquetWriter, so memory
    holds at most ``max_rows`` rows plus the window's indices and the
    files' ``bucket`` columns (the mapped pages are file-backed).  Every
    bucket is published by atomic tmp+rename."""
    import numpy as np
    import pyarrow.compute as pc
    pin_arrow_threads()
    rows = []
    t0 = time.perf_counter()

    def record(bucket, n, failures, spans, fname):
        nonlocal t0
        now = time.perf_counter()
        rows.append({'bucket': bucket, 'rows': n, 'decode_failures': failures,
                     'span_count': spans, 'wall_s': now - t0, 'file': fname})
        t0 = now

    # Only PUBLISHED spill files: a task that died mid-write leaves a
    # 'spill-*.arrow.tmp', which its retry supersedes under the same
    # deterministic name.
    tables = []
    for path in sorted(glob.glob(os.path.join(spill_dir, 'spill-*.arrow'))):
        with pa.memory_map(path) as src:
            tables.append(pa.ipc.open_file(src).read_all())
    # lo[f, i], hi[f, i]: the row range of buckets[i] in file f (each file
    # is sorted by bucket)
    want = np.asarray(buckets, np.int32)
    lo = np.zeros((len(tables), len(buckets)), np.int64)
    hi = np.zeros_like(lo)
    for f, tbl in enumerate(tables):
        keys = np_view(tbl.column('bucket'), np.int32)
        lo[f] = np.searchsorted(keys, want, 'left')
        hi[f] = np.searchsorted(keys, want, 'right')
    first, last = lo.sum(axis=0), hi.sum(axis=0)

    def window(i, j):
        """Every file's rows of buckets[i]..buckets[j], concatenated."""
        return pa.concat_tables(
            [t.slice(lo[f, i], hi[f, j] - lo[f, i])
             for f, t in enumerate(tables) if hi[f, j] > lo[f, i]])

    i = 0
    while i < len(buckets):
        j = i
        while (j + 1 < len(buckets) and buckets[j + 1] > buckets[j]
               and last[j + 1] - first[i] <= max_rows):
            j += 1
        if last[j] == first[i]:                 # no rows in the window
            for bucket in buckets[i:j + 1]:
                record(bucket, 0, 0, 0, '')
        else:
            win = window(i, j)
            order = pc.sort_indices(win, sort_keys=SORT_KEYS)
            keys = np_view(win.column('bucket').take(order), np.int32)
            # prefix sums: a bucket's failures and spans are one
            # subtraction each
            fails = np.concatenate(([0], np.cumsum(np_view(
                pc.cast(pc.invert(win.column('decode_ok').take(order)),
                        pa.int8()), np.int8), dtype=np.int64)))
            spans = np.concatenate(([0], np.cumsum(
                np_view(win.column('n_spans').take(order), np.int32),
                dtype=np.int64)))
            win = win.drop_columns(['bucket'])
            # chunk holds the rows order[at:at + max_rows]: one take for a
            # window that fits, and a bucket above max_rows streams
            # through its writer one take at a time
            at, chunk = -1, None
            for bucket in buckets[i:j + 1]:
                a = int(np.searchsorted(keys, bucket, 'left'))
                b = int(np.searchsorted(keys, bucket, 'right'))
                fname = 'part-%05d.parquet' % bucket if b > a else ''
                if fname:
                    tmp = os.path.join(out_dir, '_tmp-%s' % fname)
                    with pq.ParquetWriter(tmp, win.schema) as writer:
                        k = a
                        while k < b:
                            if k - k % max_rows != at:
                                at = k - k % max_rows
                                chunk = win.take(order[at:at + max_rows])
                            end = min(b, at + max_rows)
                            writer.write_table(chunk.slice(k - at, end - k))
                            k = end
                    os.replace(tmp, os.path.join(out_dir, fname))
                record(bucket, b - a, int(fails[b] - fails[a]),
                       int(spans[b] - spans[a]), fname)
        i = j + 1
    return rows


_rows_task = ray.remote(num_cpus=1)(_extract_rows)
_extract_task = ray.remote(num_cpus=1)(_extract_unit)
_compact_task = ray.remote(num_cpus=1)(_compact_shard)


def _run_tasks(submit, items, cap, on_result):
    """Submit one task per item (``submit(item)`` returns its ref) with at
    most ``cap`` in flight, and hand each result to ``on_result`` as
    ``ray.wait`` returns it.  If a task (or ``on_result``) raises, the
    tasks in flight are cancelled and waited for before the error is
    re-raised, so no task writes after this returns."""
    items = iter(items)
    inflight = []
    try:
        while True:
            for item in itertools.islice(items, cap - len(inflight)):
                inflight.append(submit(item))
            if not inflight:
                return
            ready, inflight = ray.wait(inflight, num_returns=1)
            on_result(ray.get(ready[0]))
    except BaseException:
        for ref in inflight:
            ray.cancel(ref)
        if inflight:
            ray.wait(inflight, num_returns=len(inflight))
        raise


def run_extraction(input_path, out_dir, num_buckets=64, concurrency=None,
                   resume=True):
    """Run the full pipeline; returns a summary dict (job metrics).

    Resume refuses an output written with another ``num_buckets``: its
    bucket ids name different row sets, so skipping them would drop rows.
    It also refuses an output written from other input files (or by a
    version that did not record them; see ``checkpoint``): keeping its
    buckets would mix old and new rows.  The input is listed once, and
    Stage A reads exactly the listed files.  A ``num_buckets`` that is not
    an int >= 1, a ``concurrency`` that is neither None nor an int >= 1, a
    refused resume or a bad input footer raises before anything is
    deleted or written.
    """
    if not isinstance(num_buckets, int) or num_buckets < 1:
        raise ValueError('num_buckets must be an int >= 1, got %r'
                         % (num_buckets,))
    if concurrency is not None and (not isinstance(concurrency, int)
                                    or concurrency < 1):
        raise ValueError('concurrency must be None or an int >= 1, got %r'
                         % (concurrency,))
    listing = list_input(input_path)
    fingerprint = checkpoint.input_fingerprint(listing[1])
    done = checkpoint.load_done_buckets(out_dir) if resume else {}
    other = {r.get('num_buckets') for r in done.values()} - {num_buckets}
    if other:
        raise ValueError(
            '%s holds buckets of num_buckets=%s, not %d; resume with the '
            'same num_buckets or rerun with --no-resume'
            % (out_dir, ', '.join(sorted(map(str, other))), num_buckets))
    if {r.get('input') for r in done.values()} - {fingerprint}:
        raise ValueError(
            '%s holds buckets of other input files than %s (or of a version '
            'that did not record its input); rerun with --no-resume'
            % (out_dir, input_path))
    if len(done) == num_buckets:   # finished output: nothing to read
        _drop_stale_spills(out_dir)
        return _summary(done, [], out_dir, 0.0, 0.0, 0.0)

    if not ray.is_initialized():
        ray.init()                 # local or RAY_ADDRESS
    cpus = default_concurrency()
    cap = concurrency or cpus
    # A caller's ``concurrency`` bounds the tasks running at once.  The
    # default (the cluster's CPUs) keeps one more task queued per CPU, so a
    # CPU whose task ends starts the next without waiting on the driver.
    inflight = concurrency or 2 * cap
    t0 = time.perf_counter()
    fs, units = plan_units(input_path, cap, listing)   # every footer
    # every check has passed: only now is anything deleted
    if not resume:
        checkpoint.reset_output(out_dir)
    _drop_stale_spills(out_dir)
    spill_dir = os.path.join(out_dir, '_spill-%s' % uuid.uuid4().hex)
    os.makedirs(spill_dir)

    # Stage A: map-only extract + external-shuffle spill.  The bucketer is
    # built here and shipped once, so each task applies the same function.
    prep = [assign_bucket(num_buckets)]
    if done:
        prep.append(make_done_filter(done.keys()))
    prep_ref = ray.put(prep)
    _run_tasks(lambda unit: _extract_task.remote(fs, unit, prep_ref,
                                                 spill_dir),
               units, inflight, lambda rows: None)
    stage_a_s = time.perf_counter() - t0

    # Stage B: one compaction task per shard of contiguous buckets, over its
    # not-yet-done buckets, in shard order, even when Stage A spilled no
    # row (an empty bucket still gets its manifest row).  Grouped, not
    # split evenly, so a resume with gaps never mixes two shards in a task.
    # A task's manifest rows are appended as soon as it finishes, so a
    # later shard's failure keeps the finished shards' buckets.  The bound
    # COMPACT_MAX_ROWS is looked up per job, not bound at import.
    num_shards = _num_shards(num_buckets, cpus)   # 2 at 64 buckets, 2 CPUs
    new_rows = []
    groups = {}
    for b in range(num_buckets):
        if b not in done:
            groups.setdefault(shard_of(b, num_buckets, num_shards),
                              []).append(b)

    def record(manifest_rows):
        rows = [dict(r, num_buckets=num_buckets,   # one row per bucket
                     input=fingerprint) for r in manifest_rows]
        checkpoint.append_manifest_rows(out_dir, rows)
        new_rows.extend(rows)
    _run_tasks(lambda buckets: _compact_task.remote(
                   spill_dir, out_dir, buckets, COMPACT_MAX_ROWS),
               groups.values(), inflight, record)

    stage_b_s = time.perf_counter() - t0 - stage_a_s
    shutil.rmtree(spill_dir, ignore_errors=True)
    wall = time.perf_counter() - t0

    return _summary(done, new_rows, out_dir, wall, stage_a_s, stage_b_s)


def _drop_stale_spills(out_dir):
    """Delete the ``_spill-*`` dirs of crashed runs: they hold no
    lineage."""
    for stale in glob.glob(os.path.join(out_dir, '_spill-*')):
        shutil.rmtree(stale, ignore_errors=True)


def _summary(done, new_rows, out_dir, wall, stage_a_s, stage_b_s):
    """The job summary from the resumed (``done``) and this run's
    manifest rows."""
    all_rows = list(done.values()) + new_rows
    fresh = sum(r['rows'] for r in new_rows)
    return {
        'rows_out': sum(r['rows'] for r in all_rows),
        'rows_this_run': fresh,
        'decode_failures': sum(r['decode_failures'] for r in all_rows),
        'span_count': sum(r['span_count'] for r in all_rows),
        'buckets': len(all_rows),
        'buckets_this_run': len(new_rows),
        'wall_s': wall,
        'stage_a_s': stage_a_s,
        'stage_b_s': stage_b_s,
        'turns_per_sec': (fresh / wall) if wall > 0 else 0.0,
        'out_dir': out_dir,
    }
