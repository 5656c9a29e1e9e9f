"""Paired A/B of two checkouts' spill (Stage A) and compaction (Stage B):
output equality and timing.

Each side is a checkout root (``--parent``, e.g. a ``git archive`` of the
parent commit, and this checkout) served by its own subprocess, which
imports only that root's ``engine``: the spill format may differ between
the sides, so each side spills and compacts with its own code.  The
corpus is perfbench's seed-7 ``transcripts`` (3,000 turns, the
``boilerplate`` workload) or ``unique`` (800 turns, ``unique_docs``)
input, cut into the Stage A units a 2-CPU job plans.  One run of a side
is one job without Ray: every unit goes through the side's Stage A task
body, ``pipeline._extract_unit``, then the buckets of every shard a
2-CPU job makes are compacted by ``pipeline._compact_shard`` at
``--max-rows``.  Each function is called with its side's own signature:
a side whose spill is split into shard dirs takes the bucket and shard
counts in Stage A and the shard in Stage B.
Both sides run once to warm, then ``--pairs`` pairs alternating which
side goes first.  Prints each pair's Stage A and Stage B times, the
medians with p25-p75, each side's spill file count, and whether the last
runs' part files (byte for byte) and manifest rows (without ``wall_s``)
are equal; exits 1 if not.

Run from the repo root::

    python tests/stage_ab.py --parent <dir> --corpus transcripts --pairs 8
    python tests/stage_ab.py --parent <dir> --corpus unique --max-rows 100
"""

import argparse
import glob
import inspect
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)

CORPORA = {'transcripts': 3000, 'unique': 800}
NUM_BUCKETS = 64
CAP = 2                # Stage A units and shards as a job at 2 CPUs plans them


def serve(root, corpus_dir, work, max_rows):
    """One side: plan the units once, then answer each ``run`` line on
    stdin with one JSON line of timings and manifest rows."""
    sys.path.insert(0, root)
    from engine.rayjob import pipeline

    fs, units = pipeline.plan_units(corpus_dir, CAP)
    num_shards = pipeline._num_shards(NUM_BUCKETS, CAP)
    groups = {}
    for b in range(NUM_BUCKETS):
        groups.setdefault(pipeline.shard_of(b, NUM_BUCKETS, num_shards),
                          []).append(b)
    spill, out = os.path.join(work, 'spill'), os.path.join(work, 'out')

    def takes(fn, name):
        return name in inspect.signature(fn).parameters
    counts = ((NUM_BUCKETS, num_shards)
              if takes(pipeline._extract_unit, 'num_shards') else ())
    by_shard = takes(pipeline._compact_shard, 'shard')
    for line in sys.stdin:
        if line.strip() != 'run':
            break
        for d in (spill, out):
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(d)
        t0 = time.perf_counter()
        prep = [pipeline.assign_bucket(NUM_BUCKETS)]
        for unit in units:
            pipeline._extract_unit(fs, unit, prep, spill, *counts)
        t1 = time.perf_counter()
        rows = []
        for shard, g in groups.items():
            got = pipeline._compact_shard(
                spill, out, *((shard, g) if by_shard else (g,)), max_rows)
            rows += [{k: v for k, v in r.items() if k != 'wall_s'}
                     for r in got]
        t2 = time.perf_counter()
        print(json.dumps({'a': t1 - t0, 'b': t2 - t1, 'manifest': rows}),
              flush=True)


def _quartiles(xs):
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return '%7.1f ms (p25-p75 %.1f-%.1f)' % (q[1] * 1e3, q[0] * 1e3,
                                             q[2] * 1e3)


def _parts(out):
    parts = {}
    for p in sorted(glob.glob(os.path.join(out, 'part-*.parquet'))):
        with open(p, 'rb') as f:
            parts[os.path.basename(p)] = f.read()
    return parts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--parent', help='root of the checkout to compare against')
    ap.add_argument('--corpus', choices=sorted(CORPORA), default='transcripts')
    ap.add_argument('--max-rows', type=int, default=2000000,
                    help="Stage B's max_rows (pipeline.COMPACT_MAX_ROWS is 2000000)")
    ap.add_argument('--pairs', type=int, default=8)
    ap.add_argument('--work', default=os.path.join(tempfile.gettempdir(),
                                                   'stage_ab'),
                    help='scratch dir: cached inputs, spills and parts')
    ap.add_argument('--serve', help=argparse.SUPPRESS)
    ap.add_argument('--input', help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.serve:
        serve(args.serve, args.input, args.work, args.max_rows)
        return 0
    if not args.parent:
        ap.error('--parent is required')

    sys.path.insert(0, _ROOT)
    from perfbench import corpus
    inputs = corpus.ensure_inputs(args.work,
                                  args.corpus, CORPORA[args.corpus], 7)
    sides = {}
    for name, root in (('parent', os.path.abspath(args.parent)),
                       ('change', _ROOT)):
        work = os.path.join(args.work, name)
        sides[name] = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), '--serve', root,
             '--input', inputs['corpus'], '--work', work,
             '--max-rows', str(args.max_rows)],
            cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            universal_newlines=True)

    def run(name):
        p = sides[name]
        p.stdin.write('run\n')
        p.stdin.flush()
        line = p.stdout.readline()
        if not line:
            raise RuntimeError('%s side exited' % name)
        return json.loads(line)

    try:
        last = {name: run(name) for name in sides}           # warm
        times = {name: {'a': [], 'b': []} for name in sides}
        for k in range(args.pairs):
            order = ('parent', 'change') if k % 2 == 0 else ('change', 'parent')
            for name in order:
                last[name] = run(name)
                times[name]['a'].append(last[name]['a'])
                times[name]['b'].append(last[name]['b'])
            print('pair %2d  ' % k + '  '.join(
                '%s A %6.1f B %6.1f ms' % (name, last[name]['a'] * 1e3,
                                           last[name]['b'] * 1e3)
                for name in ('parent', 'change')), flush=True)
    finally:
        for p in sides.values():
            p.stdin.close()
            p.wait()
    print('%s, %d turns, max_rows %d, %d pairs'
          % (args.corpus, CORPORA[args.corpus], args.max_rows, args.pairs))
    for name in sides:
        print('%-6s Stage A %s  Stage B %s' % (
            name, _quartiles(times[name]['a']), _quartiles(times[name]['b'])))
    for stage in ('a', 'b'):
        print('Stage %s median ratio parent/change %.2f' % (
            stage.upper(), statistics.median(
                p / c for p, c in zip(times['parent'][stage],
                                      times['change'][stage]))))
    print('spill files: ' + ', '.join(
        '%s %d' % (name, len(glob.glob(os.path.join(
            args.work, name, 'spill', '**', 'spill-*.arrow'), recursive=True)))
        for name in sides))
    parts = {name: _parts(os.path.join(args.work, name, 'out'))
             for name in sides}
    differ = sorted(n for n in set(parts['parent']) | set(parts['change'])
                    if parts['parent'].get(n) != parts['change'].get(n))
    same_manifest = last['parent']['manifest'] == last['change']['manifest']
    print('part files: %d, %d differ; manifest rows: %d, %s'
          % (len(parts['change']), len(differ), len(last['change']['manifest']),
             'equal' if same_manifest else 'DIFFER'))
    return 0 if same_manifest and not differ else 1


if __name__ == '__main__':
    sys.exit(main())
