"""Crash-resume tests: the driver dies at a manifest append, and a resume
must still give every row exactly once.

The crash run is a subprocess with its own local Ray, in its own session.
It wraps ``checkpoint.append_manifest_rows`` so that one call ends the
process with ``os._exit`` (no ``finally``, no ``atexit``), the way a killed
driver would.  The test then kills the process group, so no Ray process of
the crashed run is left to write, and resumes in-process.  A manifest row
is appended only after its part file is published (Delta Lake's rule: a log
entry becomes visible only after its data files are complete), so the
resume may trust every row it finds.
"""

import glob
import json
import os
import signal
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

from engine.rayjob import checkpoint

NUM_BUCKETS = 16          # 2 spill shards, so 2 Stage B tasks and 2 appends
CRASH_EXIT = 17

_CRASH_RUN = '''
import os
import sys
import ray
from engine.rayjob import checkpoint
from engine.rayjob.pipeline import run_extraction

corpus, out, when, k = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
append = checkpoint.append_manifest_rows
calls = 0


def crashing_append(out_dir, rows):
    global calls
    calls += 1
    if calls == k and when == 'before':
        os._exit(%d)
    append(out_dir, rows)
    if calls == k and when == 'after':
        os._exit(%d)


checkpoint.append_manifest_rows = crashing_append
ray.init(address='local', num_cpus=2, include_dashboard=False)
run_extraction(corpus, out, num_buckets=%d, resume=False)
''' % (CRASH_EXIT, CRASH_EXIT, NUM_BUCKETS)


@pytest.fixture(scope='module')
def corpus(tmp_path_factory):
    from engine.rayjob.transcripts import generate_transcripts
    d = str(tmp_path_factory.mktemp('crash_corpus'))
    generate_transcripts(d, n_convs=40, seed=7, rows_per_file=100)
    keys = pq.read_table(d, columns=['conv_id', 'turn_idx'])
    return d, sorted(zip(keys.column('conv_id').to_pylist(),
                         keys.column('turn_idx').to_pylist()))


@pytest.fixture(scope='module')
def uncrashed(ray_session, corpus, tmp_path_factory):
    """Part-file bytes of a run that nothing interrupted."""
    from engine.rayjob.pipeline import run_extraction
    out = str(tmp_path_factory.mktemp('uncrashed'))
    run_extraction(corpus[0], out, num_buckets=NUM_BUCKETS, resume=False)
    return _part_bytes(out)


def _part_bytes(out):
    parts = {}
    for p in sorted(glob.glob(os.path.join(out, 'part-*.parquet'))):
        with open(p, 'rb') as f:
            parts[os.path.basename(p)] = f.read()
    return parts


def _manifest_buckets(out):
    with open(checkpoint.manifest_path(out)) as f:
        return sorted(json.loads(line)['bucket'] for line in f)


@pytest.mark.parametrize('when,k,appended', [
    ('before', 1, 0),                 # every spill written, no row appended
    ('after', 1, NUM_BUCKETS // 2),   # one shard recorded, the other not
    ('after', 2, NUM_BUCKETS),        # manifest complete, spill not removed
])
def test_resume_after_driver_crash_at_manifest_append(
        ray_session, corpus, uncrashed, tmp_path, when, k, appended):
    """The driver exits at the k-th manifest append (before or after it
    writes); after the crashed run's processes are killed, a resume
    finishes with every input row exactly once, one manifest row per
    bucket, part files equal byte for byte to an uncrashed run's and no
    ``_spill-*`` dir left."""
    from engine.rayjob.pipeline import run_extraction
    d, keys = corpus
    out = str(tmp_path / 'out')
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    env.pop('RAY_ADDRESS', None)
    proc = subprocess.Popen(
        [sys.executable, '-c', _CRASH_RUN, d, out, when, str(k)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=root,
        env=env, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        try:                  # the crashed run's Ray processes, if any left
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    assert proc.returncode == CRASH_EXIT, err[-2000:]
    if appended:
        recorded = _manifest_buckets(out)
        assert len(set(recorded)) == len(recorded) == appended
    else:
        assert not os.path.exists(checkpoint.manifest_path(out))
    assert glob.glob(os.path.join(out, '_spill-*'))   # the crash left it

    summary = run_extraction(d, out, num_buckets=NUM_BUCKETS, resume=True)
    assert summary['rows_out'] == len(keys)
    assert summary['buckets'] == NUM_BUCKETS
    got = []
    for p in sorted(glob.glob(os.path.join(out, 'part-*.parquet'))):
        t = pq.read_table(p, columns=['conv_id', 'turn_idx'])
        got.extend(zip(t.column('conv_id').to_pylist(),
                       t.column('turn_idx').to_pylist()))
    assert sorted(got) == keys
    assert _manifest_buckets(out) == list(range(NUM_BUCKETS))
    assert _part_bytes(out) == uncrashed
    assert not glob.glob(os.path.join(out, '_spill-*'))
