"""Pipeline-level tests (FIXTURES.md §4): per-turn equality vs the direct
kernel, stable ordering after the shuffle, and resume-from-manifest
equivalence."""

import json
import os
import glob
import shutil

import pyarrow.parquet as pq
import pytest

from engine.rayjob.transcripts import generate_transcripts
from engine.rayjob import checkpoint


@pytest.fixture(scope='module')
def corpus(tmp_path_factory):
    d = str(tmp_path_factory.mktemp('transcripts'))
    n, files = generate_transcripts(d, n_convs=40, seed=7, rows_per_file=100)
    assert files > 1  # multiple blocks even at small scale
    return d, n


@pytest.fixture(scope='module')
def extracted(ray_session, corpus, tmp_path_factory):
    from engine.rayjob.pipeline import run_extraction
    d, n = corpus
    out = str(tmp_path_factory.mktemp('out'))
    summary = run_extraction(d, out, num_buckets=4,
                             concurrency=2, resume=False)
    return d, n, out, summary


def _part_bytes(out_dir):
    parts = {}
    for p in sorted(glob.glob(os.path.join(out_dir, 'part-*.parquet'))):
        with open(p, 'rb') as f:
            parts[os.path.basename(p)] = f.read()
    return parts


def _read_all(out_dir):
    parts = sorted(glob.glob(os.path.join(out_dir, 'part-*.parquet')))
    return parts, [pq.read_table(p) for p in parts]


def _spill(spill_dir, paths, num_buckets):
    """Stage A in this process: each row group of ``paths`` is a one-piece
    unit through ``pipeline._extract_unit`` (read, bucketed, extracted and
    spilled to ``spill_dir``, which is made if missing)."""
    import pyarrow.fs as pafs
    from engine.rayjob import pipeline
    os.makedirs(spill_dir, exist_ok=True)
    prep = [pipeline.assign_bucket(num_buckets)]
    for path in paths:
        meta = pq.read_metadata(path)
        for rg in range(meta.num_row_groups):
            pipeline._extract_unit(
                pafs.LocalFileSystem(), ((path, rg, 0,
                                          meta.row_group(rg).num_rows),),
                prep, spill_dir)


def _log_compact_task(monkeypatch, log, before=None):
    """Swap Stage B's task for one that appends each call's buckets and
    ``max_rows`` to ``log`` and runs ``before(buckets)``, if given, ahead
    of ``_compact_shard``."""
    import ray
    from engine.rayjob import pipeline
    compact = pipeline._compact_shard

    @ray.remote(num_cpus=1)
    def task(spill_dir, out_dir, buckets, max_rows):
        with open(log, 'a') as f:
            f.write(json.dumps([buckets, max_rows]) + '\n')
        if before is not None:
            before(buckets)
        return compact(spill_dir, out_dir, buckets, max_rows)
    monkeypatch.setattr(pipeline, '_compact_task', task)


def _without_wall(manifest):
    """Manifest rows without their timing, which differs run to run."""
    return [{k: v for k, v in r.items() if k != 'wall_s'} for r in manifest]


def _logged_calls(log):
    """The (buckets, max_rows) calls ``_log_compact_task`` logged, sorted;
    the log is emptied."""
    with open(log) as f:
        got = sorted(json.loads(l) for l in f)
    os.unlink(log)
    return got


def test_row_counts_and_metrics(extracted):
    d, n, out, summary = extracted
    assert summary['rows_out'] == n
    parts, tables = _read_all(out)
    assert sum(t.num_rows for t in tables) == n
    assert summary['decode_failures'] >= 1  # corpus embeds ~2% corrupt rows
    assert summary['span_count'] > 0


def test_output_sorted_within_bucket(extracted):
    _, _, out, _ = extracted
    parts, tables = _read_all(out)
    for t in tables:
        keys = list(zip(t.column('conv_id').to_pylist(),
                        t.column('turn_idx').to_pylist()))
        assert keys == sorted(keys)


def test_per_turn_text_matches_direct_kernel(extracted, shared_fonts):
    from engine.pdfcore.extract import extract_turn
    d, n, out, _ = extracted
    # Build input lookup
    payload = {}
    for p in glob.glob(os.path.join(d, '*.parquet')):
        t = pq.read_table(p)
        for cid, ti, tx in zip(t.column('conv_id').to_pylist(),
                               t.column('turn_idx').to_pylist(),
                               t.column('text').to_pylist()):
            payload[(cid, ti)] = tx
    _, tables = _read_all(out)
    checked = 0
    for t in tables:
        for cid, ti, tx, ok in zip(t.column('conv_id').to_pylist(),
                                   t.column('turn_idx').to_pylist(),
                                   t.column('text').to_pylist(),
                                   t.column('decode_ok').to_pylist()):
            r = extract_turn(payload[(cid, ti)], shared_fonts)
            assert tx == r['text']
            assert ok == r['decode_ok']
            checked += 1
    assert checked == n


def test_resume_skips_done_and_rebuilds_missing(ray_session, extracted):
    from engine.rayjob.pipeline import run_extraction
    d, n, out, _ = extracted
    parts, tables = _read_all(out)
    original = {os.path.basename(p): pq.read_table(p) for p in parts}

    # Remove one bucket's file and its manifest row
    victim = os.path.basename(parts[0])
    victim_bucket = int(victim.split('-')[1].split('.')[0])
    os.unlink(parts[0])
    mpath = checkpoint.manifest_path(out)
    rows = [json.loads(l) for l in open(mpath) if l.strip()]
    with open(mpath, 'w') as f:
        for r in rows:
            if r['bucket'] != victim_bucket:
                f.write(json.dumps(r) + '\n')

    summary = run_extraction(d, out, num_buckets=4,
                             concurrency=2, resume=True)
    assert summary['buckets_this_run'] == 1
    assert summary['rows_out'] == n

    # Rebuilt output identical to the single-run output
    parts2, _ = _read_all(out)
    assert sorted(os.path.basename(p) for p in parts2) == sorted(original)
    rebuilt = pq.read_table(os.path.join(out, victim))
    assert rebuilt.equals(original[victim])


def test_resume_of_finished_output_skips_stage_a(ray_session, extracted,
                                                monkeypatch):
    """A resume over an output whose every bucket is done returns the
    summary from the manifest without reading the input or making a
    spill dir.  ``pq.ParquetFile`` is the sink's only row reader; the
    patch covers this process, and a Stage A task in a worker would
    break the row and time assertions."""
    from engine.rayjob.pipeline import run_extraction
    d, n, out, _ = extracted

    def no_read(*args, **kwargs):
        raise AssertionError('a finished output must not read its input')
    monkeypatch.setattr(pq, 'ParquetFile', no_read)
    summary = run_extraction(d, out, num_buckets=4,
                             concurrency=2, resume=True)
    assert summary['rows_out'] == n
    assert summary['rows_this_run'] == 0
    assert summary['buckets'] == 4 and summary['buckets_this_run'] == 0
    assert summary['stage_a_s'] == summary['stage_b_s'] == 0
    assert not glob.glob(os.path.join(out, '_spill-*'))


def test_resume_of_finished_output_submits_no_task(ray_session, extracted,
                                                  monkeypatch):
    """A resume over a finished output reads no input footer and submits
    no Stage A or Stage B task: the summary comes from the manifest."""
    from engine.rayjob import pipeline
    d, n, out, _ = extracted

    def refuse(*args, **kwargs):
        raise AssertionError('a finished output must not list its input '
                             'or submit a task')

    class NoSubmit(object):
        remote = staticmethod(refuse)
    monkeypatch.setattr(pq, 'read_metadata', refuse)
    monkeypatch.setattr(pipeline, '_extract_task', NoSubmit)
    monkeypatch.setattr(pipeline, '_compact_task', NoSubmit)
    summary = pipeline.run_extraction(d, out, num_buckets=4,
                                      concurrency=2, resume=True)
    assert summary['rows_out'] == n
    assert summary['rows_this_run'] == 0
    assert summary['buckets'] == 4 and summary['buckets_this_run'] == 0
    assert summary['stage_a_s'] == summary['stage_b_s'] == 0
    assert not glob.glob(os.path.join(out, '_spill-*'))


def test_resume_finishes_when_only_empty_buckets_are_left(ray_session,
                                                         tmp_path,
                                                         monkeypatch):
    """A resume whose unfinished buckets hold no rows still runs Stage B
    over them: each gets its empty manifest row, so the output is finished
    and a further resume submits no task."""
    import zlib
    import pyarrow as pa
    from engine.rayjob import pipeline
    from gen_pdf import build_variant

    conv = next('conv-%d' % i for i in range(100)
                if zlib.crc32(b'conv-%d' % i) % 2 == 0)
    d = str(tmp_path / 'corpus')
    os.makedirs(d)
    pq.write_table(pa.table({
        'conv_id': pa.array([conv] * 5, pa.string()),
        'turn_idx': pa.array(range(5), pa.int32()),
        'text': pa.array([build_variant('V01').decode('latin-1')] * 5,
                         pa.string()),
    }), os.path.join(d, 'part-0.parquet'))
    out = str(tmp_path / 'out')
    first = pipeline.run_extraction(d, out, num_buckets=2, resume=False)
    assert first['buckets'] == 2 and first['rows_out'] == 5

    # the driver died between the two shards' appends: bucket 1's empty
    # row never reached the manifest
    mpath = checkpoint.manifest_path(out)
    rows = [json.loads(l) for l in open(mpath) if l.strip()]
    assert [(r['bucket'], r['rows'], r['file']) for r in rows] == [
        (0, 5, 'part-00000.parquet'), (1, 0, '')]
    with open(mpath, 'w') as f:
        f.write(json.dumps(rows[0]) + '\n')

    resumed = pipeline.run_extraction(d, out, num_buckets=2)
    assert resumed['buckets'] == 2 and resumed['buckets_this_run'] == 1
    assert resumed['rows_out'] == 5 and resumed['rows_this_run'] == 0

    def refuse(*args, **kwargs):
        raise AssertionError('a finished output must not submit a task')

    class NoSubmit(object):
        remote = staticmethod(refuse)
    monkeypatch.setattr(pipeline, '_extract_task', NoSubmit)
    monkeypatch.setattr(pipeline, '_compact_task', NoSubmit)
    again = pipeline.run_extraction(d, out, num_buckets=2)
    assert again['buckets'] == 2 and again['buckets_this_run'] == 0
    assert again['rows_out'] == 5


def test_resume_skips_units_of_done_buckets(ray_session, tmp_path):
    """A resume whose finished-bucket filter empties whole units skips
    them: one file per conversation, every bucket but one done."""
    import zlib
    import pyarrow as pa
    from engine.rayjob.pipeline import run_extraction
    d = tmp_path / 'corpus'
    d.mkdir()
    names = ['conv-%d' % i for i in range(20)]
    a = names[0]
    b = next(c for c in names
             if zlib.crc32(c.encode()) % 2 != zlib.crc32(a.encode()) % 2)
    for conv in (a, b):
        pq.write_table(pa.table({
            'conv_id': pa.array([conv] * 5, pa.string()),
            'turn_idx': pa.array(range(5), pa.int32()),
            'text': pa.array(['not a pdf %d' % i for i in range(5)],
                             pa.string()),
        }), str(d / ('%s.parquet' % conv)))
    out = str(tmp_path / 'out')
    run_extraction(str(d), out, num_buckets=2, resume=False)
    redo = zlib.crc32(b.encode()) % 2
    mpath = checkpoint.manifest_path(out)
    rows = [json.loads(l) for l in open(mpath)]
    with open(mpath, 'w') as f:
        for r in rows:
            if r['bucket'] != redo:
                f.write(json.dumps(r) + '\n')
    part = os.path.join(out, 'part-%05d.parquet' % redo)
    before = pq.read_table(part)
    os.unlink(part)

    summary = run_extraction(str(d), out, num_buckets=2, resume=True)
    assert summary['buckets_this_run'] == 1
    assert summary['rows_this_run'] == 5 and summary['rows_out'] == 10
    assert pq.read_table(part).equals(before)


def test_resume_refuses_changed_bucket_count(ray_session, corpus, tmp_path):
    """Bucket ids name different row sets under another num_buckets, so a
    resume with a changed count must raise instead of skipping buckets it
    never extracted and silently returning fewer rows."""
    from engine.rayjob.pipeline import run_extraction
    d, n = corpus
    out = str(tmp_path)
    run_extraction(d, out, num_buckets=4, concurrency=2,
                   resume=False)
    mpath = checkpoint.manifest_path(out)
    rows = [json.loads(l) for l in open(mpath)]
    with open(mpath, 'w') as f:
        for r in rows:
            if r['bucket'] < 2:
                f.write(json.dumps(r) + '\n')
            elif r['file']:
                os.unlink(os.path.join(out, r['file']))

    with pytest.raises(ValueError, match='--no-resume'):
        run_extraction(d, out, num_buckets=2, concurrency=2,
                       resume=True)
    summary = run_extraction(d, out, num_buckets=4,
                             concurrency=2, resume=True)
    assert summary['buckets_this_run'] == 2
    assert summary['rows_out'] == n

    # a manifest that records no bucket count is refused too
    rows = [json.loads(l) for l in open(mpath)]
    with open(mpath, 'w') as f:
        for r in rows:
            r.pop('num_buckets')
            f.write(json.dumps(r) + '\n')
    with pytest.raises(ValueError, match='--no-resume'):
        run_extraction(d, out, num_buckets=4, resume=True)


@pytest.mark.parametrize('change', ['added', 'resized', 'unrecorded'])
def test_resume_refuses_changed_input(ray_session, corpus, tmp_path,
                                      monkeypatch, change):
    """A resume raises, naming --no-resume, before any task is submitted,
    after a file is added to the input (here over a finished output),
    after a file's size changes (over a partial one), or over manifest
    rows with no ``input`` (written by a version that did not record it):
    keeping the buckets could mix old and new rows.  The original input,
    at another path, still resumes and redoes only the missing bucket."""
    from engine.rayjob import pipeline
    src, n = corpus
    d = str(tmp_path / 'corpus')
    shutil.copytree(src, d)
    out = str(tmp_path / 'out')
    pipeline.run_extraction(d, out, num_buckets=4,
                            concurrency=2, resume=False)
    mpath = checkpoint.manifest_path(out)
    rows = [json.loads(l) for l in open(mpath)]

    def drop_bucket_0():
        with open(mpath, 'w') as f:
            for r in rows:
                if r['bucket'] != 0:
                    f.write(json.dumps(r) + '\n')
                elif r['file']:
                    os.unlink(os.path.join(out, r['file']))

    path = os.path.join(d, sorted(os.listdir(d))[0])
    if change == 'added':
        os.makedirs(os.path.join(d, 'sub'))
        shutil.copy(path, os.path.join(d, 'sub', 'copy.parquet'))
    elif change == 'resized':
        drop_bucket_0()
        size = os.path.getsize(path)
        table = pq.read_table(path)
        pq.write_table(table.slice(0, table.num_rows - 1), path)
        assert os.path.getsize(path) != size
    else:
        with open(mpath, 'w') as f:
            for r in rows:
                f.write(json.dumps({k: v for k, v in r.items()
                                    if k != 'input'}) + '\n')

    def refuse(*args, **kwargs):
        raise AssertionError('no task may be submitted')

    class NoSubmit(object):
        remote = staticmethod(refuse)
    with monkeypatch.context() as m:
        m.setattr(pipeline, '_extract_task', NoSubmit)
        m.setattr(pipeline, '_compact_task', NoSubmit)
        with pytest.raises(ValueError, match='--no-resume'):
            pipeline.run_extraction(d, out, num_buckets=4, resume=True)
    assert not glob.glob(os.path.join(out, '_spill-*'))

    if change != 'resized':
        drop_bucket_0()
    summary = pipeline.run_extraction(src, out, num_buckets=4,
                                      concurrency=2, resume=True)
    assert summary['buckets_this_run'] == 1
    assert summary['rows_out'] == n


def test_run_extraction_rejects_bad_bucket_count(corpus, tmp_path):
    """A bucket count below 1, or a concurrency that is neither None nor
    an int >= 1, raises a ValueError naming the parameter before any
    work: no Ray task runs and no spill dir is left behind."""
    from engine.rayjob.pipeline import run_extraction
    d, _ = corpus
    cases = [('num_buckets', 0), ('num_buckets', -4), ('concurrency', -1),
             ('concurrency', 0)]
    for i, (name, bad) in enumerate(cases):
        out = str(tmp_path / str(i))
        with pytest.raises(ValueError, match=name):
            run_extraction(d, out, resume=False, **{name: bad})
        assert glob.glob(os.path.join(out, '_spill-*')) == []


def test_stage_b_one_task_per_shard(ray_session, corpus, tmp_path,
                                    monkeypatch):
    """Stage B compacts one spill shard per call: a fresh job makes one
    call per shard with its whole bucket range, and a resume with gaps
    makes one call per shard with only that shard's missing buckets."""
    from engine.rayjob import pipeline
    d, n = corpus
    log = str(tmp_path / 'calls.jsonl')
    _log_compact_task(monkeypatch, log)

    out = str(tmp_path / 'out')
    pipeline.run_extraction(d, out, num_buckets=16,
                            concurrency=2, resume=False)   # 2 spill shards
    assert [b for b, _ in _logged_calls(log)] == [list(range(8)),
                                                  list(range(8, 16))]
    parts, _ = _read_all(out)
    fresh = {os.path.basename(p): pq.read_table(p) for p in parts}

    gaps = {1, 2, 9, 14}
    mpath = checkpoint.manifest_path(out)
    rows = [json.loads(l) for l in open(mpath)]
    with open(mpath, 'w') as f:
        for r in rows:
            if r['bucket'] not in gaps:
                f.write(json.dumps(r) + '\n')
            elif r['file']:
                os.unlink(os.path.join(out, r['file']))
    summary = pipeline.run_extraction(d, out, num_buckets=16,
                                      concurrency=2, resume=True)
    assert [b for b, _ in _logged_calls(log)] == [[1, 2], [9, 14]]
    assert summary['buckets_this_run'] == 4
    assert summary['rows_out'] == n
    parts, _ = _read_all(out)
    assert sorted(os.path.basename(p) for p in parts) == sorted(fresh)
    for name, table in fresh.items():
        assert pq.read_table(os.path.join(out, name)).equals(table), name


def test_stage_b_shards_capped_by_cluster_cpus(ray_session, corpus, tmp_path,
                                              monkeypatch):
    """Stage B runs as one wave: a job has no more spill shards (= Stage B
    tasks) than the cluster has CPUs, whatever its ``concurrency``.  At 144
    buckets isqrt(B) // 2 is 6, so the 4-CPU session makes 4 compaction
    calls, each a contiguous bucket range, covering every bucket once; the
    parts equal an in-process spill and compaction at 6 shards."""
    from engine.rayjob import pipeline
    assert [pipeline._num_shards(b, cpus) for b, cpus in
            ((64, 2), (64, 16), (16, 1), (400000, 1000))] == [2, 4, 1, 316]
    assert int(ray_session.cluster_resources()['CPU']) == 4
    d, n = corpus
    log = str(tmp_path / 'calls.jsonl')
    _log_compact_task(monkeypatch, log)

    out = str(tmp_path / 'out')
    summary = pipeline.run_extraction(d, out, num_buckets=144,
                                      concurrency=2, resume=False)
    assert summary['rows_out'] == n
    calls = [buckets for buckets, _ in _logged_calls(log)]
    assert len(calls) == 4
    for c in calls:
        assert c == list(range(c[0], c[-1] + 1))
    assert sorted(b for c in calls for b in c) == list(range(144))

    spill, ref = str(tmp_path / 'spill'), str(tmp_path / 'ref')
    os.makedirs(ref)
    _spill(spill, sorted(glob.glob(os.path.join(d, '*.parquet'))), 144)
    for s in range(6):
        pipeline._compact_shard(spill, ref, [
            b for b in range(144) if pipeline.shard_of(b, 144, 6) == s])
    got = _part_bytes(out)
    assert got and got == _part_bytes(ref)


def test_many_small_files_pack_into_few_units(ray_session, tmp_path,
                                              monkeypatch):
    """Stage A units are sized by bytes, not by files: over 200 two-row
    files at ``concurrency=2`` plan 2 units, so the job writes 2 spill
    files, one per unit, not one per file or per shard, and every input
    row reaches the part files once."""
    from engine.rayjob import pipeline
    d = str(tmp_path / 'corpus')
    n, n_files = generate_transcripts(d, n_convs=70, seed=7,
                                      rows_per_file=2)
    assert n_files >= 200
    assert len(pipeline.plan_units(d, 2)[1]) == 2
    out = str(tmp_path / 'out')
    counts = str(tmp_path / 'spill_files.jsonl')

    def count_spill_files(buckets):
        files = glob.glob(os.path.join(out, '_spill-*', 'spill-*.arrow'))
        with open(counts, 'a') as f:
            f.write(json.dumps(len(files)) + '\n')
    _log_compact_task(monkeypatch, str(tmp_path / 'calls.jsonl'),
                      count_spill_files)
    summary = pipeline.run_extraction(d, out, num_buckets=16,
                                      concurrency=2, resume=False)  # 2 shards
    assert summary['rows_out'] == n
    with open(counts) as f:
        assert [json.loads(l) for l in f] == [2, 2]   # per Stage B task
    src = pq.read_table(d)
    want = sorted(zip(src.column('conv_id').to_pylist(),
                      src.column('turn_idx').to_pylist()))
    _, tables = _read_all(out)
    keys = sorted(k for t in tables
                  for k in zip(t.column('conv_id').to_pylist(),
                               t.column('turn_idx').to_pylist()))
    assert keys == want and len(set(keys)) == n


def test_stage_b_failure_keeps_finished_shards(ray_session, corpus, tmp_path,
                                               monkeypatch):
    """A Stage B task that fails after another shard has finished must not
    lose that shard: its manifest rows are already written, and a resume
    compacts only the failed shard's buckets, every row exactly once."""
    import time
    from engine.rayjob import pipeline
    d, n = corpus
    out = str(tmp_path / 'out')
    mpath = checkpoint.manifest_path(out)
    task = pipeline._compact_task

    def second_shard_fails(buckets):
        if buckets[0] < 8:
            return
        # wait until the driver has recorded shard 0, then fail
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if os.path.exists(mpath) and os.path.getsize(mpath):
                break
            time.sleep(0.05)
        raise RuntimeError('injected Stage B failure')
    _log_compact_task(monkeypatch, str(tmp_path / 'calls.jsonl'),
                      second_shard_fails)

    with pytest.raises(Exception, match='injected Stage B failure'):
        pipeline.run_extraction(d, out, num_buckets=16,
                                concurrency=2, resume=False)   # 2 shards
    assert sorted(checkpoint.load_done_buckets(out)) == list(range(8))

    monkeypatch.setattr(pipeline, '_compact_task', task)
    summary = pipeline.run_extraction(d, out, num_buckets=16,
                                      concurrency=2, resume=True)
    assert summary['buckets_this_run'] == 8
    assert summary['rows_out'] == n
    _, tables = _read_all(out)
    keys = [k for t in tables for k in zip(t.column('conv_id').to_pylist(),
                                           t.column('turn_idx').to_pylist())]
    assert len(keys) == len(set(keys)) == n


def test_manifest_rows_name_published_parts(ray_session, corpus, tmp_path,
                                            monkeypatch):
    """Publish order: a bucket's part file is renamed into place before
    its manifest row is appended, so every row that names a file names a
    complete one (no ``_tmp-`` twin left), and each bucket is recorded
    exactly once by the driver."""
    from engine.rayjob import pipeline
    d, n = corpus
    out = str(tmp_path / 'out')
    append = checkpoint.append_manifest_rows
    seen = []

    def checked(out_dir, rows):
        for r in rows:
            if r['file']:
                assert os.path.exists(os.path.join(out_dir, r['file'])), r
                assert not os.path.exists(
                    os.path.join(out_dir, '_tmp-' + r['file'])), r
            seen.append(r['bucket'])
        append(out_dir, rows)
    monkeypatch.setattr(checkpoint, 'append_manifest_rows', checked)

    summary = pipeline.run_extraction(d, out, num_buckets=16,
                                      concurrency=2, resume=False)
    assert sorted(seen) == list(range(16))
    assert summary['rows_out'] == n
    assert not glob.glob(os.path.join(out, '_spill-*'))


def test_task_failure_cancels_and_waits_for_the_rest(ray_session, tmp_path):
    """A task that raises makes the driver cancel the tasks still in
    flight and wait for them to end before it re-raises, so no task of a
    failed job writes after ``run_extraction`` has returned."""
    import time
    import ray
    from engine.rayjob.pipeline import _run_tasks
    mark = str(tmp_path / 'mark')

    @ray.remote(num_cpus=1)
    def task(kind):
        if kind == 'fail':
            deadline = time.monotonic() + 30     # until 'slow' has started
            while not os.path.exists(mark) and time.monotonic() < deadline:
                time.sleep(0.02)
            raise RuntimeError('injected task failure')
        with open(mark, 'w') as f:
            f.write('running')
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            with open(mark, 'w') as f:
                f.write('ended')

    results = []
    t0 = time.monotonic()
    with pytest.raises(Exception, match='injected task failure'):
        _run_tasks(task.remote, ['slow', 'fail'], 2, results.append)
    assert time.monotonic() - t0 < 30            # cancelled, not waited out
    with open(mark) as f:
        assert f.read() == 'ended'               # and over before the raise
    assert results == []


def test_concurrency_bounds_tasks_running_at_once(ray_session, tmp_path,
                                                  monkeypatch):
    """A ``concurrency`` below the cluster's CPUs bounds the tasks that run
    at once in both stages: the session has 4 CPUs and the job asks for 1,
    so no two Stage A or Stage B tasks overlap in time.  ``UNIT_BYTES`` is
    cut to a file's share of the input, so Stage A has at least one task
    per file to overlap."""
    import itertools
    import time
    import uuid
    import ray
    from engine.rayjob import pipeline
    d = str(tmp_path / 'corpus')
    n, n_files = generate_transcripts(d, n_convs=6, seed=7, rows_per_file=8)
    assert n_files >= 2
    total = sum(pq.read_metadata(p).row_group(0).total_byte_size
                for p in glob.glob(os.path.join(d, '*.parquet')))
    monkeypatch.setattr(pipeline, 'UNIT_BYTES', total // n_files)
    n_units = len(pipeline.plan_units(d, 1)[1])
    assert n_units >= n_files
    log = str(tmp_path / 'log')
    os.makedirs(log)

    def spied(stage, fn):
        @ray.remote(num_cpus=1)
        def task(*args):
            start = time.time()
            time.sleep(0.3)               # long enough to overlap another
            try:
                return fn(*args)
            finally:
                with open(os.path.join(log, uuid.uuid4().hex), 'w') as f:
                    json.dump([stage, start, time.time()], f)
        return task
    monkeypatch.setattr(pipeline, '_extract_task',
                        spied('a', pipeline._extract_unit))
    monkeypatch.setattr(pipeline, '_compact_task',
                        spied('b', pipeline._compact_shard))
    summary = pipeline.run_extraction(d, str(tmp_path / 'out'),
                                      num_buckets=16, concurrency=1,
                                      resume=False)   # 2 spill shards
    assert summary['rows_out'] == n
    spans = [json.load(open(os.path.join(log, f))) for f in os.listdir(log)]
    for stage, count in (('a', n_units), ('b', 2)):
        events = sorted(e for s, start, end in spans if s == stage
                        for e in ((start, 1), (end, -1)))
        assert len(events) == 2 * count
        running = list(itertools.accumulate(step for _, step in events))
        assert max(running) == 1, (stage, events)


def test_stale_spill_cleaned_and_ignored(ray_session, corpus, tmp_path_factory):
    """A crashed run's _spill-* leftovers must be deleted on the next run
    and never pollute compaction output."""
    from engine.rayjob.pipeline import run_extraction
    d, n = corpus
    out = str(tmp_path_factory.mktemp('out_stale'))
    os.makedirs(out, exist_ok=True)
    stale = os.path.join(out, '_spill-deadbeef')
    os.makedirs(stale)
    # poison: a spill file in the layout Stage B reads (an Arrow IPC
    # spill-*.arrow) that would corrupt bucket 0
    import pyarrow as pa
    poison = pa.table({
        'conv_id': pa.array(['conv-zzz'], pa.string()),
        'turn_idx': pa.array([0], pa.int32()),
        'text': pa.array(['POISON'], pa.string()),
        'n_spans': pa.array([0], pa.int32()),
        'n_pages': pa.array([0], pa.int32()),
        'decode_ok': pa.array([True], pa.bool_()),
        'error': pa.array([''], pa.string()),
        'bucket': pa.array([0], pa.int32()),
    })
    with pa.ipc.new_file(os.path.join(stale, 'spill-junk.arrow'),
                         poison.schema) as writer:
        writer.write_table(poison)

    summary = run_extraction(d, out, num_buckets=4,
                             concurrency=2, resume=True)
    assert not os.path.exists(stale)
    assert summary['rows_out'] == n
    for p in glob.glob(os.path.join(out, 'part-*.parquet')):
        t = pq.read_table(p, columns=['text'])
        assert 'POISON' not in set(t.column('text').to_pylist())


def test_giant_conversation_skew(ray_session, tmp_path_factory):
    """One conversation holding ~40% of all turns (the north rule's skew
    concern): extraction is per-row so the job completes with every bucket
    bounded by that single conversation, ordering intact."""
    from engine.rayjob.pipeline import run_extraction
    from engine.rayjob.transcripts import generate_transcripts
    d = str(tmp_path_factory.mktemp('skewed'))
    generate_transcripts(d, n_convs=30, seed=11, rows_per_file=200,
                         long_conv_frac=0.0)
    # append one giant conversation as an extra file
    import pyarrow as pa
    import sys
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from gen_pdf import build_variant
    payload = build_variant('V01').decode('latin-1')
    giant = 120
    pq.write_table(pa.table({
        'conv_id': pa.array(['conv-giant'] * giant, pa.string()),
        'turn_idx': pa.array(list(range(giant)), pa.int32()),
        'role': pa.array(['user'] * giant, pa.string()),
        'text': pa.array([payload] * giant, pa.string()),
        'tool': pa.array([''] * giant, pa.string()),
        'ts': pa.array([1735689600000000 + i for i in range(giant)],
                       pa.timestamp('us')),
    }), os.path.join(d, 'part-giant.parquet'))

    out = str(tmp_path_factory.mktemp('out_skew'))
    summary = run_extraction(d, out, num_buckets=4,
                             concurrency=2, resume=False)
    # the giant conversation landed whole in exactly one bucket, ordered
    rows = [json.loads(l) for l in open(checkpoint.manifest_path(out))]
    assert sum(r['rows'] for r in rows) == summary['rows_out']
    found = 0
    for p in glob.glob(os.path.join(out, 'part-*.parquet')):
        t = pq.read_table(p, columns=['conv_id', 'turn_idx'])
        ids = t.column('conv_id').to_pylist()
        if 'conv-giant' in ids:
            found += 1
            idxs = [ti for ci, ti in zip(ids, t.column('turn_idx').to_pylist())
                    if ci == 'conv-giant']
            assert idxs == list(range(giant))
    assert found == 1


def test_corpus_generation_deterministic(tmp_path_factory):
    """Same (n_convs, seed) → byte-identical corpus, independent of dir."""
    import hashlib
    from engine.rayjob.transcripts import generate_transcripts
    hashes = []
    for name in ('deta', 'detb'):
        d = str(tmp_path_factory.mktemp(name))
        generate_transcripts(d, n_convs=15, seed=3, rows_per_file=100)
        h = hashlib.md5()
        for p in sorted(glob.glob(os.path.join(d, 'part-*.parquet'))):
            h.update(pq.read_table(p).to_pandas().to_csv().encode())
        hashes.append(h.hexdigest())
    assert hashes[0] == hashes[1]


def test_install_staged_replaces_stale_partial(tmp_path):
    """A stale PARTIAL out_dir (no marker) is replaced by the staged copy,
    and the renamed-aside old copy leaves no trash dir behind."""
    from engine.rayjob.transcripts import _install_staged
    out_dir = str(tmp_path / 'corpus')
    stage = out_dir + '.stage-1'
    marker = os.path.join(out_dir, '_COMPLETE')
    os.makedirs(out_dir)
    with open(os.path.join(out_dir, 'part-00000.parquet'), 'w') as f:
        f.write('stale')
    os.makedirs(stage)
    with open(os.path.join(stage, 'part-00000.parquet'), 'w') as f:
        f.write('fresh')
    with open(os.path.join(stage, '_COMPLETE'), 'w') as f:
        f.write('1\n')

    _install_staged(stage, out_dir, marker)
    assert os.path.exists(marker)
    with open(os.path.join(out_dir, 'part-00000.parquet')) as f:
        assert f.read() == 'fresh'
    assert sorted(os.listdir(str(tmp_path))) == ['corpus']


def test_spill_retry_overwrites_not_duplicates(tmp_path):
    """A Ray-retried Stage A task re-runs on the SAME unit after a
    possibly-successful earlier publish.  The deterministic spill name
    (from the unit's place in the input) must make the retry overwrite its
    own file — never add a second copy of the rows (ADVICE r1: uuid4 names
    duplicated rows in the final output on retry).  A unit of two pieces
    spills ONE file of one record batch: every Stage B task searches its
    ``bucket`` column, which must be one chunk, not one copy per task."""
    import pyarrow as pa
    import pyarrow.fs as pafs
    from engine.rayjob import pipeline

    d = str(tmp_path / 'corpus')
    generate_transcripts(d, n_convs=4, seed=11, rows_per_file=100)
    src = glob.glob(os.path.join(d, '*.parquet'))[0]
    rows = pq.read_metadata(src).num_rows

    spill = str(tmp_path / 'spill')
    os.makedirs(spill)

    def task(unit):
        return pipeline._extract_unit(pafs.LocalFileSystem(), unit,
                                      [pipeline.assign_bucket(4)], spill)
    unit = ((src, 0, 0, rows // 2), (src, 0, rows // 2, rows))
    assert task(unit) == task(unit) == rows
    files = glob.glob(os.path.join(spill, 'spill-*.arrow'))
    assert len(files) == 1              # overwritten, not duplicated
    reader = pa.ipc.open_file(files[0])
    assert reader.num_record_batches == 1
    table = reader.read_all()
    assert table.num_rows == rows and table.column('bucket').num_chunks == 1

    # a DIFFERENT unit must land in a different file
    assert task(((src, 0, 0, 10),)) == 10
    assert len(glob.glob(os.path.join(spill, 'spill-*.arrow'))) == 2


def test_duplicated_input_file_keeps_every_row(ray_session, tmp_path,
                                               monkeypatch):
    """A file copied under a second name doubles the input, and the sink
    must write both copies: each key as many times as
    ``build_extract_dataset`` gives it.  Spill files named after the rows'
    keys gave both files' units the same name, so the second replaced the
    first and the job returned 51 of 102 rows without an error.  The
    Dataset comes from the sink's own Stage A reader, not from
    ``ray.data.read_parquet`` (patched to raise), and its rows sorted by
    (conv_id, turn_idx) equal the part files' column for column."""
    import collections
    import pyarrow as pa
    import ray.data
    from engine.rayjob.pipeline import build_extract_dataset, run_extraction

    d = str(tmp_path / 'corpus')
    n, files = generate_transcripts(d, n_convs=8, seed=17)
    assert files == 1
    src = glob.glob(os.path.join(d, '*.parquet'))[0]
    shutil.copy(src, os.path.join(d, 'copy.parquet'))
    out = str(tmp_path / 'out')
    summary = run_extraction(d, out, num_buckets=8, resume=False)
    assert summary['rows_out'] == 2 * n
    _, parts = _read_all(out)
    sink = collections.Counter(
        k for t in parts for k in zip(t.column('conv_id').to_pylist(),
                                      t.column('turn_idx').to_pylist()))

    def no_read(*args, **kwargs):
        raise AssertionError('the Datasets must not read through Ray Data')
    monkeypatch.setattr(ray.data, 'read_parquet', no_read)
    turns = build_extract_dataset(d).to_pandas()
    assert sink == collections.Counter(zip(turns.conv_id, turns.turn_idx))
    keys = ['conv_id', 'turn_idx']
    want = pa.concat_tables(parts).to_pandas().sort_values(
        keys, kind='mergesort').reset_index(drop=True)
    got = turns.sort_values(keys, kind='mergesort').reset_index(drop=True)
    assert list(got.columns) == list(want.columns)
    assert got.equals(want)


def test_sink_fails_only_hostile_turns(ray_session, tmp_path, shared_fonts):
    """A sink run over a corpus with an XObject fan-out, a Flate bomb and
    a glyph-repeat turn finishes: each hostile row is written once, failed
    with ``BudgetExceeded``, and every row equals its ``extract_turn``
    oracle."""
    import pyarrow as pa
    from engine.rayjob.pipeline import run_extraction
    from gen_pdf import flate_bomb, glyph_repeat, xobject_fanout

    d = str(tmp_path / 'corpus')
    n, files = generate_transcripts(d, n_convs=8, seed=17)
    assert files == 1
    src = glob.glob(os.path.join(d, '*.parquet'))[0]
    table = pq.read_table(src)
    hostile = {5: xobject_fanout(30), 20: flate_bomb(64),
               40: glyph_repeat(256, 100)}
    text = table.column('text').to_pylist()
    for i, payload in hostile.items():
        text[i] = payload.decode('latin-1')
    table = table.set_column(table.schema.get_field_index('text'), 'text',
                             pa.array(text, pa.string()))
    pq.write_table(table, src)
    bad = {(table.column('conv_id')[i].as_py(),
            table.column('turn_idx')[i].as_py()) for i in hostile}

    out = str(tmp_path / 'out')
    summary = run_extraction(d, out, num_buckets=4, resume=False)
    assert summary['rows_out'] == n
    _, parts = _read_all(out)
    keys = [('conv_id', 'ascending'), ('turn_idx', 'ascending')]
    got = pa.concat_tables(parts).sort_by(keys)
    want = _per_row_turns(table.select(['conv_id', 'turn_idx', 'text'])
                          .sort_by(keys), shared_fonts)
    assert got.equals(want)
    failed = {(c, t) for c, t, e in zip(got.column('conv_id').to_pylist(),
                                        got.column('turn_idx').to_pylist(),
                                        got.column('error').to_pylist())
              if e.startswith('BudgetExceeded: ')}
    assert failed == bad


def test_compaction_paths_equal_bytes_and_shard_read_once(tmp_path,
                                                         monkeypatch):
    """A shard whose rows fit ``max_rows`` is one window; a smaller bound
    cuts it into windows of contiguous buckets, down to one bucket each.
    Every bound gives the same manifest rows and byte-equal part files,
    each part is one write of at most ``max_rows`` rows while every bucket
    fits, and each unit's spill file is mapped once per compaction call."""
    import collections
    import pyarrow as pa
    from engine.rayjob import pipeline

    d = str(tmp_path / 'corpus')
    generate_transcripts(d, n_convs=60, seed=19, rows_per_file=150,
                         long_conv_frac=0.0)
    spill = str(tmp_path / 'spill')
    _spill(spill, sorted(glob.glob(os.path.join(d, '*.parquet'))), 16)
    files = sorted(glob.glob(os.path.join(spill, 'spill-*.arrow')))
    assert len(files) > 1
    bucket_rows = collections.Counter(
        b for f in files
        for b in pa.ipc.open_file(f).read_all().column('bucket').to_pylist())
    assert len(bucket_rows) == 16          # every bucket has rows
    shard_rows = [sum(bucket_rows[b] for b in range(8 * s, 8 * s + 8))
                  for s in (0, 1)]
    largest = max(bucket_rows.values())
    assert largest < min(shard_rows) - 1

    maps = []
    memory_map = pa.memory_map

    def counted(path, *args, **kwargs):
        maps.append(path)
        return memory_map(path, *args, **kwargs)
    monkeypatch.setattr(pa, 'memory_map', counted)

    writes = []
    write_table = pq.ParquetWriter.write_table

    def counted_write(self, table, *args, **kwargs):
        writes.append(table.num_rows)
        return write_table(self, table, *args, **kwargs)
    monkeypatch.setattr(pq.ParquetWriter, 'write_table', counted_write)

    def run(max_rows):
        out = str(tmp_path / ('out-%d' % max_rows))
        os.makedirs(out)
        rows = []
        del writes[:]
        for s in (0, 1):
            del maps[:]
            rows += pipeline._compact_shard(
                spill, out, list(range(8 * s, 8 * s + 8)), max_rows)
            assert sorted(maps) == files   # each spill file mapped once
        assert len(writes) == 16 and max(writes) <= max_rows
        return _without_wall(rows), _part_bytes(out)

    whole, whole_parts = run(max(shard_rows))
    assert len(whole_parts) == 16
    for max_rows in (min(shard_rows) - 1, largest):
        manifest, parts = run(max_rows)
        assert whole == manifest, max_rows
        assert whole_parts == parts, max_rows


def test_bucket_above_max_rows_alone_takes_chunked_path(tmp_path,
                                                        monkeypatch):
    """A bucket above ``max_rows`` among small buckets is a window of its
    own, written through one ParquetWriter in takes of at most
    ``max_rows`` rows; the small buckets around it still share windows
    (one sort each), and the part files equal a run at the default bound
    (byte for byte, but for the giant part, which holds one row group per
    take)."""
    import collections
    import zlib
    import pyarrow as pa
    import sys
    from engine.rayjob import pipeline
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from gen_pdf import build_variant

    d = str(tmp_path / 'corpus')
    generate_transcripts(d, n_convs=24, seed=29, rows_per_file=150,
                         long_conv_frac=0.0)
    giant = 80
    pq.write_table(pa.table({
        'conv_id': pa.array(['conv-giant'] * giant, pa.string()),
        'turn_idx': pa.array(list(range(giant)), pa.int32()),
        'role': pa.array(['user'] * giant, pa.string()),
        'text': pa.array([build_variant('V03').decode('latin-1')] * giant,
                         pa.string()),
        'tool': pa.array([''] * giant, pa.string()),
        'ts': pa.array([1735689600000000 + i for i in range(giant)],
                       pa.timestamp('us')),
    }), os.path.join(d, 'part-giant.parquet'))
    spill = str(tmp_path / 'spill')
    _spill(spill, sorted(glob.glob(os.path.join(d, '*.parquet'))), 8)
    counts = collections.Counter()
    for f in glob.glob(os.path.join(spill, 'spill-*.arrow')):
        counts.update(pa.ipc.open_file(f).read_all().column('bucket').to_pylist())
    big = zlib.crc32(b'conv-giant') % 8
    max_rows = max(n for b, n in counts.items() if b != big)
    assert len(counts) == 8 and counts[big] > max_rows

    import pyarrow.compute as pc
    sorts, writes = [], []
    sort_indices = pc.sort_indices
    write_table = pq.ParquetWriter.write_table

    def counted_sort(table, *args, **kwargs):
        sorts.append(table.num_rows)
        return sort_indices(table, *args, **kwargs)

    def counted_write(self, table, *args, **kwargs):
        writes.append(table.num_rows)
        return write_table(self, table, *args, **kwargs)
    monkeypatch.setattr(pc, 'sort_indices', counted_sort)
    monkeypatch.setattr(pq.ParquetWriter, 'write_table', counted_write)

    def run(bound):
        out = str(tmp_path / ('out-%d' % bound))
        os.makedirs(out)
        manifest = pipeline._compact_shard(spill, out, list(range(8)), bound)
        return _without_wall(manifest), _part_bytes(out)

    small, small_parts = run(max_rows)
    assert counts[big] in sorts and sum(sorts) == sum(counts.values())
    assert len(sorts) - 1 < 7        # the 7 small buckets share windows
    assert max(writes) <= max_rows
    assert len(writes) == 7 + -(-counts[big] // max_rows)
    name = 'part-%05d.parquet' % big
    meta = pq.ParquetFile(pa.BufferReader(small_parts[name])).metadata
    assert meta.num_row_groups == -(-counts[big] // max_rows)
    del sorts[:], writes[:]
    default, default_parts = run(pipeline.COMPACT_MAX_ROWS)
    assert sorts == [sum(counts.values())] and len(writes) == 8
    assert small == default
    assert len(default_parts) == 8
    # the giant part holds one row group per take, so only its rows equal
    # the default run's; every other part is byte-equal
    assert pq.read_table(pa.BufferReader(small_parts.pop(name))).equals(
        pq.read_table(pa.BufferReader(default_parts.pop(name))))
    assert small_parts == default_parts


def test_compactor_ignores_tmp_files(tmp_path):
    """A worker killed mid-write leaves 'spill-*.arrow.tmp'; compaction
    must enumerate only PUBLISHED spill files (ADVICE r1: directory
    discovery made every compact task fail on the half-written file)."""
    import pyarrow as pa
    from engine.rayjob.pipeline import _compact_shard

    spill = str(tmp_path / 'spill')
    out = str(tmp_path / 'out')
    os.makedirs(spill)
    os.makedirs(out)
    good = pa.table({
        'conv_id': pa.array(['c1', 'c2'], pa.string()),
        'turn_idx': pa.array([0, 0], pa.int32()),
        'text': pa.array(['a', 'b'], pa.string()),
        'n_spans': pa.array([1, 1], pa.int32()),
        'n_pages': pa.array([1, 1], pa.int32()),
        'decode_ok': pa.array([True, True], pa.bool_()),
        'error': pa.array(['', ''], pa.string()),
        'bucket': pa.array([0, 1], pa.int32()),
    })
    with pa.ipc.new_file(os.path.join(spill, 'spill-aaaa.arrow'),
                         good.schema) as writer:
        writer.write_table(good)
    # half-written leftover: invalid Arrow IPC bytes
    with open(os.path.join(spill, 'spill-bbbb.arrow.tmp'), 'wb') as f:
        f.write(b'ARROW1 garbage truncated')

    manifest = _compact_shard(spill, out, [0, 1])
    assert [r['rows'] for r in manifest] == [1, 1]
    parts = sorted(glob.glob(os.path.join(out, 'part-*.parquet')))
    assert len(parts) == 2
    assert sum(pq.read_table(p).num_rows for p in parts) == 2


def test_in_batch_repeats_identical_output_and_hits(tmp_path, shared_fonts):
    """Payloads repeated within a batch are extracted once per distinct
    payload and give output identical to a per-row ``extract_turn`` of
    every row — extraction is a pure function of the payload."""
    from engine.rayjob.extract_stage import ExtractTurns
    import pyarrow as pa

    d = str(tmp_path / 'corpus')
    generate_transcripts(d, n_convs=4, seed=13, rows_per_file=200)
    src = glob.glob(os.path.join(d, '*.parquet'))[0]
    base = pq.read_table(src, columns=['conv_id', 'turn_idx', 'text'])
    # duplicate the batch so every payload appears at least twice
    batch = pa.concat_tables([base, base]).combine_chunks()

    stage = ExtractTurns()
    assert stage(batch).equals(_per_row_turns(batch, shared_fonts))
    assert stage.lru_hits >= base.num_rows         # second copy all repeats


def _per_row_turns(batch, shared):
    """``ExtractTurns``'s output built row by row with ``extract_turn``."""
    import pyarrow as pa
    from engine.pdfcore.extract import extract_turn
    rs = [extract_turn(p, shared) for p in batch.column('text').to_pylist()]
    return pa.table({
        'conv_id': batch.column('conv_id'),
        'turn_idx': batch.column('turn_idx'),
        'text': pa.array([r['text'] for r in rs], pa.string()),
        'n_spans': pa.array([r['n_spans'] for r in rs], pa.int32()),
        'n_pages': pa.array([r['n_pages'] for r in rs], pa.int32()),
        'decode_ok': pa.array([r['decode_ok'] for r in rs], pa.bool_()),
        'error': pa.array([r['error'] for r in rs], pa.string()),
    })


def _per_row_spans(batch, shared):
    """``ExtractSpans``'s output built row by row (one row per glyph)."""
    import pyarrow as pa
    from engine.pdfcore.extract import extract_turn
    rows = []
    for c, t, p in zip(batch.column('conv_id').to_pylist(),
                       batch.column('turn_idx').to_pylist(),
                       batch.column('text').to_pylist()):
        spans = extract_turn(p, shared, collect_spans=True)['spans'] or ()
        rows.extend((c, t) + tuple(g) for g in spans)
    cols = list(zip(*rows)) if rows else [()] * 8
    types = [pa.string(), pa.int32(), pa.int32(), pa.float64(),
             pa.float64(), pa.string(), pa.int32(), pa.float64()]
    names = ['conv_id', 'turn_idx', 'page', 'x', 'y', 'unicode', 'cid',
             'width']
    return pa.table({n: pa.array(c, t)
                     for n, c, t in zip(names, cols, types)})


@pytest.mark.parametrize('stage', ['ExtractTurns', 'ExtractSpans'])
def test_stage_extracts_each_distinct_payload_once(shared_fonts, monkeypatch,
                                                   stage):
    """A batch with repeated payloads, a null one, an empty one and a
    corrupt one, whose ``text`` column has two chunks: the stage's output
    equals the per-row ``extract_turn`` oracle, the kernel runs once per
    distinct payload, ``lru_hits`` counts every other row (rows - kernel
    calls), and a second call extracts every payload again: no result is
    kept between calls.  Stage instances share the process's font state."""
    import sys
    import pyarrow as pa
    from engine.rayjob import extract_stage
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from gen_pdf import build_variant

    a, b, bad = (build_variant(v).decode('latin-1')
                 for v in ('V01', 'V02', 'V18a'))
    payloads = [a, None, b, '', a, bad, None, b, '', a, a]
    n, distinct = len(payloads), 5
    batch = pa.table({
        'conv_id': pa.array(['c%d' % (i % 3) for i in range(n)], pa.string()),
        'turn_idx': pa.array(range(n), pa.int32()),
        'text': pa.chunked_array([payloads[:4], payloads[4:]], pa.string()),
    })
    oracle = {'ExtractTurns': _per_row_turns,
              'ExtractSpans': _per_row_spans}[stage](batch, shared_fonts)
    assert oracle.num_rows > 0

    kernel = extract_stage.extract_turn
    calls = []

    def counted(payload, *args, **kwargs):
        calls.append(payload)
        return kernel(payload, *args, **kwargs)
    monkeypatch.setattr(extract_stage, 'extract_turn', counted)

    cls = getattr(extract_stage, stage)
    plain = cls()
    assert plain(batch).equals(oracle)
    assert len(calls) == distinct
    assert plain.lru_hits == n - len(calls)
    assert plain(batch).equals(oracle)
    assert len(calls) == 2 * distinct           # nothing kept between calls
    assert plain.lru_hits == 2 * n - len(calls)
    empty = plain(batch.slice(0, 0))
    assert empty.num_rows == 0 and empty.schema.equals(oracle.schema)
    assert cls().shared is plain.shared is extract_stage.font_state()


def test_hostile_payloads_fail_only_their_rows(shared_fonts):
    """One ``ExtractTurns`` batch mixes a Flate bomb and an XObject fan-out
    with every golden variant: the two hostile rows fail with the budget
    error, and every row equals its ``extract_turn`` oracle."""
    import pyarrow as pa
    from engine.rayjob.extract_stage import ExtractTurns
    from gen_pdf import build_variant, flate_bomb, variant_ids, xobject_fanout

    payloads = [build_variant(v).decode('latin-1') for v in variant_ids()]
    payloads[3:3] = [flate_bomb(64).decode('latin-1')]
    payloads[10:10] = [xobject_fanout(30).decode('latin-1')]
    batch = pa.table({
        'conv_id': pa.array(['c%d' % (i % 4) for i in range(len(payloads))],
                            pa.string()),
        'turn_idx': pa.array(range(len(payloads)), pa.int32()),
        'text': pa.array(payloads, pa.string()),
    })
    got = ExtractTurns()(batch)
    assert got.equals(_per_row_turns(batch, shared_fonts))
    errors = got.column('error').to_pylist()
    assert [i for i, e in enumerate(errors)
            if e.startswith('BudgetExceeded: ')] == [3, 10]
    assert got.column('text').to_pylist()[3] == ''


def test_expected_tables_match_engine_per_variant(tmp_path, shared_fonts):
    """The reference-derived expected tables (ensure_expected — built from
    the committed goldens, never from the engine) must agree with the
    engine kernel on every distinct payload: this is the bridge that makes
    the driver's extract_* oracle joins a REAL independent check."""
    import hashlib
    import sys
    import pyarrow.parquet as pq
    from engine.rayjob.transcripts import ensure_expected
    from engine.pdfcore.extract import extract_turn
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from gen_pdf import VARIANTS, build_variant

    corpus = str(tmp_path / 'corpus')
    os.makedirs(corpus)
    exp_dir = ensure_expected(corpus)
    turns = pq.read_table(os.path.join(exp_dir, 'expected_turns.parquet'))
    spans = pq.read_table(os.path.join(exp_dir, 'expected_spans.parquet'))
    by_fp = {r['fp']: r for r in turns.to_pylist()}
    spans_by_fp = {}
    for r in spans.to_pylist():
        spans_by_fp.setdefault(r['fp'], []).append(r)

    assert len(by_fp) == len(VARIANTS)
    total_spans = 0
    for vid in sorted(VARIANTS):
        payload = build_variant(vid).decode('latin-1')
        fp = hashlib.md5(payload.encode('utf-8')).hexdigest()
        r = extract_turn(payload, shared_fonts, collect_spans=True)
        e = by_fp[fp]
        assert r['text'] == e['text'], vid
        assert r['n_spans'] == e['n_spans'], vid
        assert r['n_pages'] == e['n_pages'], vid
        assert r['decode_ok'] == e['decode_ok'], vid
        got = [(pg, x, y, u, cid, w) for (pg, x, y, u, cid, w) in r['spans']]
        want = [(s['page'], s['x'], s['y'], s['unicode'], s['cid'], s['width'])
                for s in spans_by_fp.get(fp, [])]
        assert got == want, vid          # exact float64, page, cid, width
        total_spans += len(want)
    assert total_spans == spans.num_rows


def test_chunked_compaction_identical_output(ray_session, tmp_path_factory,
                                             monkeypatch):
    """Skew: with max_rows far below the bucket size (one conversation
    much larger than a take), a bucket is written in several takes and the
    parts, manifest counts and ordering equal the default bound's.
    ``run_extraction`` reads ``COMPACT_MAX_ROWS`` per job on the driver,
    so a bound set after ray.init reaches the compactor."""
    from engine.rayjob import pipeline
    from engine.rayjob.transcripts import generate_transcripts
    import pyarrow as pa
    import sys
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from gen_pdf import build_variant

    d = str(tmp_path_factory.mktemp('chunk_corpus'))
    generate_transcripts(d, n_convs=12, seed=23, rows_per_file=150,
                         long_conv_frac=0.0)
    payload = build_variant('V02').decode('latin-1')
    giant = 90                        # >> the 16-row takes below
    pq.write_table(pa.table({
        'conv_id': pa.array(['conv-giant'] * giant, pa.string()),
        'turn_idx': pa.array(list(range(giant)), pa.int32()),
        'role': pa.array(['user'] * giant, pa.string()),
        'text': pa.array([payload] * giant, pa.string()),
        'tool': pa.array([''] * giant, pa.string()),
        'ts': pa.array([1735689600000000 + i for i in range(giant)],
                       pa.timestamp('us')),
    }), os.path.join(d, 'part-giant.parquet'))

    out_mem = str(tmp_path_factory.mktemp('out_mem'))
    s1 = pipeline.run_extraction(d, out_mem, num_buckets=4,
                                 concurrency=2, resume=False)

    # the driver hands the module's bound to each compaction task
    log = str(tmp_path_factory.mktemp('calls').joinpath('calls.jsonl'))
    _log_compact_task(monkeypatch, log)
    monkeypatch.setattr(pipeline, 'COMPACT_MAX_ROWS', 16)
    out_small = str(tmp_path_factory.mktemp('out_small'))
    s2 = pipeline.run_extraction(d, out_small, num_buckets=4,
                                 concurrency=2, resume=False)
    calls = _logged_calls(log)
    assert calls and all(max_rows == 16 for _, max_rows in calls)
    assert s2['rows_out'] == s1['rows_out']

    # compact a real spill (every bucket in one call) in-process with
    # max_rows=16, counting writes
    spill = str(tmp_path_factory.mktemp('chunk_spill'))
    out_chk = str(tmp_path_factory.mktemp('out_chk'))
    _spill(spill, sorted(glob.glob(os.path.join(d, '*.parquet'))), 4)
    writes = []
    write_table = pq.ParquetWriter.write_table

    def counted_write(self, table, *args, **kwargs):
        writes.append(table.num_rows)
        return write_table(self, table, *args, **kwargs)
    monkeypatch.setattr(pq.ParquetWriter, 'write_table', counted_write)
    manifest = pipeline._compact_shard(spill, out_chk, list(range(4)),
                                       max_rows=16)
    assert max(writes) <= 16
    assert len(writes) > sum(1 for r in manifest
                             if r['file'])   # some bucket took several writes
    assert sum(r['rows'] for r in manifest) == s1['rows_out']
    assert sum(r['decode_failures'] for r in manifest) == s1['decode_failures']
    assert sum(r['span_count'] for r in manifest) == s1['span_count']
    p1 = sorted(os.path.basename(p)
                for p in glob.glob(os.path.join(out_mem, 'part-*.parquet')))
    p2 = sorted(os.path.basename(p)
                for p in glob.glob(os.path.join(out_chk, 'part-*.parquet')))
    assert p1 == p2
    for name in p1:
        a = pq.read_table(os.path.join(out_mem, name))
        for out in (out_chk, out_small):
            b = pq.read_table(os.path.join(out, name))
            assert a.equals(b), name   # same rows, same order, same schema


def test_duplicate_keys_land_once_across_takes(tmp_path, monkeypatch):
    """Rows whose (conv_id, turn_idx) key is DUPLICATED land exactly once,
    fully sorted, when a bucket is written in takes smaller than a key's
    run: 30 rows in two spill files, every key 3x, at ``max_rows=4``.
    The sort is stable, so duplicates keep their spill order."""
    import pyarrow as pa
    from engine.rayjob.pipeline import _compact_shard

    n = 30
    convs = ['c%d' % (i % 2) for i in range(n)]
    turns = [(i // 2) // 3 for i in range(n)]     # each (conv, turn) 3x
    tbl = pa.table({
        'conv_id': pa.array(convs, pa.string()),
        'turn_idx': pa.array(turns, pa.int32()),
        'text': pa.array(['t%d' % i for i in range(n)], pa.string()),
        'n_spans': pa.array([1] * n, pa.int32()),
        'n_pages': pa.array([1] * n, pa.int32()),
        'decode_ok': pa.array([i % 5 != 0 for i in range(n)], pa.bool_()),
        'error': pa.array([''] * n, pa.string()),
        'bucket': pa.array([0] * n, pa.int32()),
    })
    spill = os.path.join(str(tmp_path), 'spill')
    out = os.path.join(str(tmp_path), 'out')
    os.makedirs(spill)
    os.makedirs(out)
    for k, part in enumerate((tbl.slice(0, 13), tbl.slice(13))):
        with pa.OSFile(os.path.join(spill, 'spill-%d.arrow' % k), 'wb') as f:
            with pa.ipc.new_file(f, part.schema) as w:
                w.write_table(part)
    writes = []
    write_table = pq.ParquetWriter.write_table

    def counted_write(self, table, *args, **kwargs):
        writes.append(table.num_rows)
        return write_table(self, table, *args, **kwargs)
    monkeypatch.setattr(pq.ParquetWriter, 'write_table', counted_write)
    manifest = _compact_shard(spill, out, [0], max_rows=4)
    assert _without_wall(manifest) == [{
        'bucket': 0, 'rows': n, 'decode_failures': 6, 'span_count': n,
        'file': 'part-00000.parquet'}]
    assert writes == [4] * 7 + [2]
    got = pq.read_table(os.path.join(out, 'part-00000.parquet'))
    assert got.num_rows == n                      # exactly-once
    want = tbl.drop_columns(['bucket']).sort_by(
        [('conv_id', 'ascending'), ('turn_idx', 'ascending')])
    assert got.equals(want)                       # fully sorted, stable


def test_torn_manifest_tail_redone(ray_session, extracted):
    """A driver killed inside append_manifest_rows leaves a torn last line:
    resume drops it, redoes that bucket, and leaves a manifest that parses."""
    from engine.rayjob.pipeline import run_extraction
    d, n, out, _ = extracted
    mpath = checkpoint.manifest_path(out)
    with open(mpath) as f:
        text = f.read()
    last = text.rstrip('\n').rsplit('\n', 1)[-1]
    with open(mpath, 'w') as f:
        f.write(text[:len(text) - len(last) - 1] + last[:len(last) // 2])

    summary = run_extraction(d, out, num_buckets=4,
                             concurrency=2, resume=True)
    assert summary['buckets_this_run'] == 1
    assert summary['rows_out'] == n
    rows = [json.loads(l) for l in open(mpath)]
    assert sorted(r['bucket'] for r in rows) == [0, 1, 2, 3]


def test_torn_manifest_tail_truncated(tmp_path):
    """The torn bytes are cut back to the last newline, so the next append
    starts on its own line instead of gluing onto them."""
    out = str(tmp_path)
    good = [{'bucket': b, 'rows': 0, 'decode_failures': 0, 'span_count': 0,
             'wall_s': 0.0, 'file': ''} for b in (0, 1)]
    checkpoint.append_manifest_rows(out, good)
    mpath = checkpoint.manifest_path(out)
    with open(mpath) as f:
        intact = f.read()
    with open(mpath, 'a') as f:
        f.write('{"bucket": 2, "ro')
    assert sorted(checkpoint.load_done_buckets(out)) == [0, 1]
    with open(mpath) as f:
        assert f.read() == intact
    checkpoint.append_manifest_rows(out, [dict(good[0], bucket=2)])
    assert sorted(checkpoint.load_done_buckets(out)) == [0, 1, 2]


def test_corrupt_manifest_line_before_last_raises(tmp_path):
    """Only the last line can be torn by a crash; corruption anywhere else
    fails loudly instead of silently redoing or skipping buckets."""
    out = str(tmp_path)
    row = {'bucket': 0, 'rows': 0, 'decode_failures': 0, 'span_count': 0,
           'wall_s': 0.0, 'file': ''}
    with open(checkpoint.manifest_path(out), 'w') as f:
        f.write(json.dumps(row) + '\n{"bucket": 1, "ro\n'
                + json.dumps(dict(row, bucket=2)) + '\n')
    with pytest.raises(ValueError):
        checkpoint.load_done_buckets(out)


def test_run_extraction_at_one_cpu(tmp_path):
    """Ray at num_cpus=1 must finish (regression: the extraction actor held
    the only CPU, so the read task never ran and the job hung)."""
    import signal
    import subprocess
    import sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = '''
import sys
import ray
ray.init(address='local', num_cpus=1, include_dashboard=False)
from engine.rayjob.transcripts import generate_transcripts
from engine.rayjob.pipeline import run_extraction
n, _ = generate_transcripts(sys.argv[1], n_convs=6, seed=7, rows_per_file=40)
summary = run_extraction(sys.argv[1], sys.argv[2], num_buckets=4, resume=False)
assert summary['rows_out'] == n, (summary, n)
print('rows_out', summary['rows_out'])
'''
    env = dict(os.environ, PYTHONPATH=root)
    env.pop('RAY_ADDRESS', None)
    proc = subprocess.Popen(
        [sys.executable, '-c', code, str(tmp_path / 'corpus'),
         str(tmp_path / 'out')], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, cwd=root, env=env,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)     # the job and its Ray processes
        proc.communicate()
        pytest.fail('run_extraction at num_cpus=1 did not finish in 120 s')
    assert proc.returncode == 0, err[-2000:]
    assert 'rows_out' in out


def test_stage_a_units_from_metadata(tmp_path, monkeypatch):
    """Stage A plans its work units on the driver from the footers, with no
    Ray: the input is cut at equal byte offsets into max(cap, ceil(bytes /
    UNIT_BYTES)) contiguous spans of row-group pieces, reading the units
    gives every row once and in order, and the file set is the one
    ``list_input`` lists."""
    import pyarrow as pa
    from engine.rayjob import pipeline
    from engine.rayjob.pipeline import _read_unit, plan_units

    def write(path, n, row_group_size=None):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pq.write_table(pa.table({
            'conv_id': pa.array(['c%d' % i for i in range(n)], pa.string()),
            'turn_idx': pa.array(range(n), pa.int32()),
            'text': pa.array(['t%d' % i for i in range(n)], pa.string()),
        }), path, row_group_size=row_group_size)

    def files(root, units):
        return sorted({os.path.relpath(piece[0], root)
                       for unit in units for piece in unit})

    def read(fs, units):
        return pa.concat_tables([_read_unit(fs, unit) for unit in units])

    def unit_bytes(unit):
        """A unit's share of its row groups' bytes, spread over their
        rows."""
        total = 0
        for path, rg, lo, hi in unit:
            g = pq.read_metadata(path).row_group(rg)
            total += g.total_byte_size * (hi - lo) / g.num_rows
        return total

    # one 800-row file with one row group at cap 2: 2 halves, every row once
    one = str(tmp_path / 'one')
    p = os.path.join(one, 'a.parquet')
    write(p, 800)
    whole = pq.read_table(one, columns=['conv_id', 'turn_idx', 'text'])
    fs, units = plan_units(one, 2)
    assert units == [((p, 0, 0, 400),), ((p, 0, 400, 800),)]
    assert read(fs, units).equals(whole)

    # the same rows in row groups of 300, 300 and 200 at cap 2: the cut at
    # half the bytes falls inside group 1, so each unit is two pieces of
    # the one file, and reading them gives the file once and in order
    groups = str(tmp_path / 'groups')
    p = os.path.join(groups, 'a.parquet')
    write(p, 800, row_group_size=300)
    meta = pq.read_metadata(p)
    b0, b1, b2 = (meta.row_group(rg).total_byte_size for rg in range(3))
    cut = round(((b0 + b1 + b2) / 2 - b0) * 300 / b1)
    assert 0 < cut < 300
    fs, units = plan_units(groups, 2)
    assert units == [((p, 0, 0, 300), (p, 1, 0, cut)),
                     ((p, 1, cut, 300), (p, 2, 0, 200))]
    assert read(fs, units).equals(whole)

    # three 1,000-row files at cap 2: 2 units, the first crossing from the
    # first file into the second
    three = str(tmp_path / 'three')
    for name in ('a', 'b', 'c'):
        write(os.path.join(three, name + '.parquet'), 1000)
    whole = pa.concat_tables(
        [pq.read_table(os.path.join(three, name + '.parquet'))
         for name in ('a', 'b', 'c')])
    fs, units = plan_units(three, 2)
    assert len(units) == 2
    assert [os.path.basename(piece[0]) for piece in units[0]] == [
        'a.parquet', 'b.parquet']
    assert units[0][0][2:] == (0, 1000) and units[0][1][2] == 0
    assert read(fs, units).equals(whole)

    # UNIT_BYTES at a quarter of the input's bytes: 4 units of about equal
    # bytes at cap 2, and a row group split between two of them
    total = sum(pq.read_metadata(os.path.join(three, name + '.parquet'))
                .row_group(0).total_byte_size for name in ('a', 'b', 'c'))
    monkeypatch.setattr(pipeline, 'UNIT_BYTES', -(-total // 4))
    fs, units = plan_units(three, 2)
    assert len(units) == 4
    row_bytes = total / 3000
    for unit in units:
        assert abs(unit_bytes(unit) - total / 4) <= row_bytes
    assert any(piece[2] > 0 for unit in units for piece in unit)
    assert read(fs, units).equals(whole)
    monkeypatch.undo()

    # an input with no rows plans no unit
    empty = str(tmp_path / 'empty')
    write(os.path.join(empty, 'a.parquet'), 0)
    assert plan_units(empty, 2)[1] == []

    # nested dirs are read; '_' and '.' prefixes are skipped; '.pq' is kept
    nested = str(tmp_path / 'nested')
    for rel in ('a.parquet', 'sub/b.parquet', '_c.parquet', '.d.parquet',
                'e.pq'):
        write(os.path.join(nested, rel), 3)
    _, units = plan_units(nested, 1)
    assert files(nested, units) == ['a.parquet', 'e.pq', 'sub/b.parquet']


def test_datasets_read_the_files_the_sink_reads(ray_session, tmp_path):
    """The sink, ``build_extract_dataset`` and ``build_spans_dataset`` all
    read a ``.pq`` file: every row reaches the part files and the turns
    Dataset, and every glyph the spans Dataset."""
    from engine.rayjob.pipeline import (build_extract_dataset,
                                        build_spans_dataset, run_extraction)
    d = str(tmp_path / 'corpus')
    n, files = generate_transcripts(d, n_convs=12, seed=7, rows_per_file=20)
    assert files > 1
    first = sorted(glob.glob(os.path.join(d, '*.parquet')))[0]
    os.rename(first, first[:-len('.parquet')] + '.pq')

    out = str(tmp_path / 'out')
    summary = run_extraction(d, out, num_buckets=2, resume=False)
    assert summary['rows_out'] == n
    turns = build_extract_dataset(d).to_pandas()
    assert len(turns) == summary['rows_out']
    _, parts = _read_all(out)
    glyphs = sum(sum(t.column('n_spans').to_pylist()) for t in parts)
    assert build_spans_dataset(d).count() == glyphs > 0


@pytest.mark.parametrize('bad', ['missing', 'retyped'])
def test_input_columns_checked_before_any_task(ray_session, tmp_path,
                                               monkeypatch, bad):
    """A file that lacks ``text``, or types it unlike the first file,
    raises a ``ValueError`` naming that file and the column in the driver,
    before any task is submitted: the sink leaves no ``_spill-*`` dir and
    no manifest, and neither Dataset starts a task."""
    import pyarrow as pa
    from engine.rayjob import pipeline
    d = str(tmp_path / 'corpus')
    generate_transcripts(d, n_convs=12, seed=7, rows_per_file=20)
    tbl = pq.read_table(sorted(glob.glob(os.path.join(d, '*.parquet')))[0])
    i = tbl.schema.get_field_index('text')
    tbl = (tbl.remove_column(i) if bad == 'missing' else
           tbl.set_column(i, 'text', tbl.column(i).cast(pa.large_string())))
    path = os.path.join(d, 'zz-%s.parquet' % bad)   # the last file listed
    pq.write_table(tbl, path)

    def refuse(*args, **kwargs):
        raise AssertionError('a task was submitted')

    class NoSubmit(object):
        remote = staticmethod(refuse)
    for task in ('_extract_task', '_rows_task', '_compact_task'):
        monkeypatch.setattr(pipeline, task, NoSubmit)
    out = str(tmp_path / 'out')
    for run in (lambda: pipeline.run_extraction(d, out, num_buckets=2),
                lambda: pipeline.build_extract_dataset(d),
                lambda: pipeline.build_spans_dataset(d)):
        with pytest.raises(ValueError,
                           match=r"zz-%s\.parquet.*'text'" % bad):
            run()
    assert not glob.glob(os.path.join(out, '_spill-*'))
    assert not os.path.exists(checkpoint.manifest_path(out))


def test_no_resume_checks_the_input_before_deleting(ray_session, tmp_path):
    """A ``--no-resume`` run whose input has a file with ``turn_idx`` typed
    int64 raises from the footer check before it deletes anything: the
    finished output it would replace keeps its manifest and both part
    files byte for byte."""
    import pyarrow as pa
    from engine.rayjob.pipeline import run_extraction
    d = str(tmp_path / 'corpus')
    generate_transcripts(d, n_convs=8, seed=7, rows_per_file=40)
    out = str(tmp_path / 'out')
    run_extraction(d, out, num_buckets=2, resume=False)
    parts = _part_bytes(out)
    with open(checkpoint.manifest_path(out), 'rb') as f:
        manifest = f.read()
    assert len(parts) == 2
    tbl = pq.read_table(sorted(glob.glob(os.path.join(d, '*.parquet')))[0])
    i = tbl.schema.get_field_index('turn_idx')
    pq.write_table(tbl.set_column(i, 'turn_idx',
                                  tbl.column(i).cast(pa.int64())),
                   os.path.join(d, 'zz-int64.parquet'))   # listed last
    with pytest.raises(ValueError, match=r"zz-int64\.parquet.*'turn_idx'"):
        run_extraction(d, out, num_buckets=2, resume=False)
    assert _part_bytes(out) == parts
    with open(checkpoint.manifest_path(out), 'rb') as f:
        assert f.read() == manifest


def test_workers_never_load_pandas(tmp_path):
    """Stage A and Stage B build and read their Arrow columns over plain
    numpy buffers, never through ``pa.array`` or ``to_numpy``: those load
    pandas (~40 MB and ~0.2 s per worker process) on first use.  A fresh
    process (no Ray) runs both task bodies of a resumed job, bucketed by
    ``assign_bucket`` and filtered by ``make_done_filter``, and both
    Dataset task bodies, and pandas must stay out of its ``sys.modules``;
    the part files must hold every row of a bucket that is not done."""
    import subprocess
    import sys
    import zlib
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    d = str(tmp_path / 'corpus')
    n, _ = generate_transcripts(d, n_convs=12, seed=7, rows_per_file=40)
    code = '''
import json
import os
import sys
from engine.rayjob import pipeline
corpus, spill, out = sys.argv[1:4]
os.makedirs(spill)
fs, units = pipeline.plan_units(corpus, 2)
prep = [pipeline.assign_bucket(16), pipeline.make_done_filter({1, 2})]
for unit in units:
    pipeline._extract_unit(fs, unit, prep, spill)
for shard in range(2):
    pipeline._compact_shard(spill, out, [
        b for b in range(16)
        if b not in (1, 2) and pipeline.shard_of(b, 16, 2) == shard])
rows = {cls.__name__: sum(pipeline._extract_rows(fs, unit, cls).num_rows
                          for unit in units)
        for cls in (pipeline.ExtractTurns, pipeline.ExtractSpans)}
print(json.dumps(dict(rows, pandas='pandas' in sys.modules)))
'''
    out = tmp_path / 'out'
    out.mkdir()
    proc = subprocess.run(
        [sys.executable, '-c', code, d, str(tmp_path / 'spill'), str(out)],
        capture_output=True, text=True, cwd=root, timeout=300,
        env=dict(os.environ, PYTHONPATH=root))
    assert proc.returncode == 0, proc.stderr[-2000:]
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not probe['pandas'], 'a Stage A or Stage B task imported pandas'
    assert probe['ExtractTurns'] == n and probe['ExtractSpans'] > n
    src = pq.read_table(d)
    want = sorted(k for k in zip(src.column('conv_id').to_pylist(),
                                 src.column('turn_idx').to_pylist())
                  if zlib.crc32(k[0].encode('utf-8')) % 16 not in (1, 2))
    assert 0 < len(want) < n
    _, tables = _read_all(str(out))
    got = sorted(k for t in tables
                 for k in zip(t.column('conv_id').to_pylist(),
                              t.column('turn_idx').to_pylist()))
    assert got == want


def test_sink_never_loads_ray_data(tmp_path):
    """The CLI's sink runs on Ray Core tasks: a one-job run writes every
    row and never imports ``ray.data`` (its executor costs ~2 s of cold
    start and two resident actors), ``pyarrow.dataset`` (the footers are
    read with ``pq.read_metadata``; the module is ~35 MB of driver RSS) or
    pandas (~40 MB).  The corpus is generated in this process, because
    ``generate_transcripts`` builds its columns with ``pa.array``, which
    loads pandas."""
    import signal
    import subprocess
    import sys
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    n, _ = generate_transcripts(str(tmp_path / 'corpus'), n_convs=6, seed=7,
                                rows_per_file=40)
    code = '''
import json
import sys
from engine.rayjob.main import main
main(['--input', sys.argv[1], '--output', sys.argv[2], '--num-buckets', '4'])
print(json.dumps({'ray_data': 'ray.data' in sys.modules,
                  'pads': 'pyarrow.dataset' in sys.modules,
                  'pandas': 'pandas' in sys.modules}))
'''
    env = dict(os.environ, PYTHONPATH=root, RAY_ADDRESS='local')
    proc = subprocess.Popen(
        [sys.executable, '-c', code, str(tmp_path / 'corpus'),
         str(tmp_path / 'out')], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, cwd=root, env=env,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)     # the job and its Ray processes
        proc.communicate()
        pytest.fail('a one-job CLI run did not finish in 300 s')
    assert proc.returncode == 0, err[-2000:]
    summary, probe = [json.loads(l) for l in out.strip().splitlines()[-2:]]
    assert summary['rows_out'] == n
    assert not probe['ray_data'], 'the sink imported ray.data'
    assert not probe['pads'], 'the sink imported pyarrow.dataset'
    assert not probe['pandas'], 'the driver imported pandas'
