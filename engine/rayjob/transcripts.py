"""Deterministic synthetic transcripts corpus (FIXTURES.md §1).

Exactly the BASELINE.json ``input_hint`` shape: (conv_id, turn_idx, role,
text, tool, ts) where ``text`` carries a complete synthetic PDF document
latin-1-decoded to string.  Conversation lengths are skewed (a small
fraction are very long) so the salting/skew paths get exercised; rows are
written in shuffled order so stable-ordering logic is actually tested.

Pure function of (n_convs, seed): no wall clock, no external data.
"""

import os
import random

import pyarrow as pa
import pyarrow.parquet as pq

__all__ = ['generate_transcripts', 'ensure_corpus', 'corpus_dir_for_sf',
           'ensure_expected', 'expected_dir_for']

# Bump when gen_pdf's variant pool or the generator's drawing logic changes:
# cached corpora under /tmp are keyed by (sf, POOL_VERSION) so stale caches
# can never mix generations.
POOL_VERSION = 3

_ROLES = ('user', 'assistant', 'tool')
_TS_BASE_US = 1735689600000000  # 2025-01-01T00:00:00Z, fixed epoch base


def _payloads():
    """Build the PDF payload pool once: (good_payloads, corrupt_payloads)."""
    import sys
    here = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    tdir = os.path.join(here, 'tests')
    if tdir not in sys.path:
        sys.path.insert(0, tdir)
    from gen_pdf import VARIANTS, CORRUPT, build_variant
    good, bad = [], []
    for vid in sorted(VARIANTS):
        payload = build_variant(vid).decode('latin-1')
        (bad if vid in CORRUPT else good).append((vid, payload))
    return good, bad


def generate_transcripts(out_dir, n_convs, seed=42, rows_per_file=None,
                         corrupt_frac=0.02, long_conv_frac=0.02):
    """Write a deterministic transcripts corpus to ``out_dir``.

    ``rows_per_file=None`` auto-sizes to ~256 files (big corpora must not
    explode into thousands of tiny parquet files — read-task count tracks
    file count).  Returns (n_rows, n_files).
    """
    rng = random.Random(seed)
    good, bad = _payloads()

    conv_ids = []
    turn_idxs = []
    roles = []
    texts = []
    tools = []
    tss = []

    for i in range(n_convs):
        conv_id = "conv-%08d" % i
        if rng.random() < long_conv_frac:
            length = rng.randint(50, 120)   # skew: a few very long convs
        else:
            length = rng.randint(2, 10)
        for t in range(length):
            conv_ids.append(conv_id)
            turn_idxs.append(t)
            role = _ROLES[t % 3]
            roles.append(role)
            if rng.random() < corrupt_frac:
                vid, payload = bad[rng.randrange(len(bad))]
            else:
                vid, payload = good[rng.randrange(len(good))]
            texts.append(payload)
            tools.append("tool-%s" % vid if role == 'tool' else "")
            tss.append(_TS_BASE_US + i * 60_000_000 + t * 1_000_000)

    n = len(conv_ids)
    if rows_per_file is None:
        # ~512 files: enough read→extract task granularity that the
        # job's tail stays balanced, without exploding into tiny files
        rows_per_file = max(1000, -(-n // 512))
    order = list(range(n))
    rng.shuffle(order)  # shuffled row order within the corpus

    os.makedirs(out_dir, exist_ok=True)
    n_files = 0
    for start in range(0, n, rows_per_file):
        idx = order[start:start + rows_per_file]
        tbl = pa.table({
            'conv_id': pa.array([conv_ids[j] for j in idx], pa.string()),
            'turn_idx': pa.array([turn_idxs[j] for j in idx], pa.int32()),
            'role': pa.array([roles[j] for j in idx], pa.string()),
            'text': pa.array([texts[j] for j in idx], pa.string()),
            'tool': pa.array([tools[j] for j in idx], pa.string()),
            'ts': pa.array([tss[j] for j in idx], pa.timestamp('us')),
        })
        pq.write_table(tbl, os.path.join(out_dir, 'part-%05d.parquet' % n_files))
        n_files += 1
    return n, n_files


# Bump when the golden event format or the expected-table schema changes.
EXPECTED_VERSION = 2


def expected_dir_for(corpus_dir):
    """Sibling dir holding the reference-derived expected tables.  SIBLING,
    not child: ``pipeline.list_input`` walks the corpus dir recursively, so
    anything inside it would pollute the pipeline input."""
    return corpus_dir + '-expected-v%d' % EXPECTED_VERSION


def ensure_expected(corpus_dir):
    """Write (once) the INDEPENDENT per-payload expected tables beside a
    corpus, derived from the committed reference-oracle goldens
    (tests/golden/pdf_text/*.json, generated by tests/gen_golden.py running
    the unmodified reference library) — never from this engine's output.

    The corpus draws every payload from the versioned variant pool, so one
    expected row per DISTINCT payload, keyed by md5 of the payload string's
    UTF-8 bytes (= DuckDB ``md5(text)`` on the corpus column), lets
    ``oracle_sql()`` express the flagship extraction as a plain join:

    - ``expected_turns.parquet``:  fp, text (reference GetFullText join),
      n_spans, n_pages, decode_ok        — reference __init__.py:548-620
    - ``expected_spans.parquet``:  fp, page, x, y, unicode, cid, width —
      one row per reference 'glyph draw' callback (__init__.py:524), exact
      float64 positions
    """
    import hashlib
    import json
    import sys
    out_dir = expected_dir_for(corpus_dir)
    marker = os.path.join(out_dir, '_COMPLETE')
    if os.path.exists(marker):
        return out_dir
    here = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    tdir = os.path.join(here, 'tests')
    if tdir not in sys.path:
        sys.path.insert(0, tdir)
    from gen_pdf import VARIANTS, build_variant
    golden_dir = os.path.join(tdir, 'golden', 'pdf_text')

    t_fp, t_text, t_spans, t_pages, t_ok = [], [], [], [], []
    s_fp, s_page, s_x, s_y, s_uni, s_cid, s_w = [], [], [], [], [], [], []
    for vid in sorted(VARIANTS):
        payload = build_variant(vid).decode('latin-1')
        fp = hashlib.md5(payload.encode('utf-8')).hexdigest()
        with open(os.path.join(golden_dir, vid + '.json')) as f:
            g = json.load(f)
        pages = g['pages'] or []
        events = g['events'] or []
        t_fp.append(fp)
        t_text.append(''.join(pages))
        t_spans.append(len(events))
        t_pages.append(len(pages))
        t_ok.append(not g['corrupt'])
        for (pg, x, y, uni, cid, w) in events:
            s_fp.append(fp)
            s_page.append(pg)
            s_x.append(float(x))        # repr strings round-trip exactly
            s_y.append(float(y))
            s_uni.append(uni)
            s_cid.append(cid)
            s_w.append(float(w))

    # staged + atomic rename: concurrent warmers never interleave writes
    import shutil
    stage = '%s.stage-%d' % (out_dir, os.getpid())
    shutil.rmtree(stage, ignore_errors=True)
    os.makedirs(stage)
    pq.write_table(pa.table({
        'fp': pa.array(t_fp, pa.string()),
        'text': pa.array(t_text, pa.string()),
        'n_spans': pa.array(t_spans, pa.int32()),
        'n_pages': pa.array(t_pages, pa.int32()),
        'decode_ok': pa.array(t_ok, pa.bool_()),
    }), os.path.join(stage, 'expected_turns.parquet'))
    pq.write_table(pa.table({
        'fp': pa.array(s_fp, pa.string()),
        'page': pa.array(s_page, pa.int32()),
        'x': pa.array(s_x, pa.float64()),
        'y': pa.array(s_y, pa.float64()),
        'unicode': pa.array(s_uni, pa.string()),
        'cid': pa.array(s_cid, pa.int32()),
        'width': pa.array(s_w, pa.float64()),
    }), os.path.join(stage, 'expected_spans.parquet'))
    with open(os.path.join(stage, '_COMPLETE'), 'w') as f:
        f.write('%d variants\n' % len(t_fp))
    _install_staged(stage, out_dir, marker)
    return out_dir


def _install_staged(stage, out_dir, marker):
    """Atomically rename a complete staging dir into place.

    If the target already exists: a COMPLETE copy (marker present) wins and
    ours is discarded; a stale PARTIAL copy (no marker — e.g. an old
    interrupted in-place write) is replaced by ours.  The old copy is
    renamed aside before it is deleted, so a racer that installed a
    complete copy after our marker check never has it deleted in place
    under a concurrent reader.
    """
    import shutil
    import uuid
    try:
        os.rename(stage, out_dir)
        return
    except OSError:
        pass
    if os.path.exists(marker):
        shutil.rmtree(stage, ignore_errors=True)
        return
    trash = '%s.trash-%s' % (out_dir, uuid.uuid4().hex)
    try:
        os.rename(out_dir, trash)
    except OSError:
        trash = None          # another racer moved it first
    try:
        os.rename(stage, out_dir)
    except OSError:
        if not os.path.exists(marker):
            raise
        shutil.rmtree(stage, ignore_errors=True)
    finally:
        if trash is not None:
            shutil.rmtree(trash, ignore_errors=True)


def corpus_dir_for_sf(sf, base='/tmp/graft_transcripts'):
    """Deterministic corpus location for a scale factor."""
    return os.path.join(base, 'sf%s-v%d' % (sf, POOL_VERSION))


def ensure_corpus(sf, base='/tmp/graft_transcripts', seed=42):
    """Generate (once) and return the transcripts dir for scale factor ``sf``.

    n_convs scales linearly: sf 0.001 → 50 convs (~380 turns),
    sf 0.01 → 500, sf 0.1 → 5000 (~38k turns).

    Generation runs in a SUBPROCESS so the hundreds of MB of intermediate
    Python lists never pollute the caller's heap (the driver process goes
    on to schedule the benchmark — GC pressure there skews timings).

    CONCURRENCY-SAFE: generation writes to a pid-suffixed staging dir,
    then atomically renames it into place — two processes racing to
    warm the same corpus (driver correctness run vs a stray bench) can
    never interleave writes into one dir; the loser just discards its
    staging copy.
    """
    import shutil
    import subprocess
    import sys
    n_convs = max(20, int(float(sf) * 50000))
    out_dir = corpus_dir_for_sf(sf, base)
    marker = os.path.join(out_dir, '_COMPLETE')
    if not os.path.exists(marker):
        repo_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        stage = '%s.stage-%d' % (out_dir, os.getpid())
        shutil.rmtree(stage, ignore_errors=True)
        code = ('from engine.rayjob.transcripts import generate_transcripts; '
                'generate_transcripts(%r, %d, seed=%d)' % (stage, n_convs, seed))
        subprocess.run([sys.executable, '-c', code], cwd=repo_root, check=True,
                       timeout=1800)
        with open(os.path.join(stage, '_COMPLETE'), 'w') as f:
            f.write('%d\n' % n_convs)
        _install_staged(stage, out_dir, marker)
    return out_dir
