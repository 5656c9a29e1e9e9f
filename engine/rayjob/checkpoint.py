"""Per-partition lineage manifest for checkpoint/resume (SURVEY.md §4.2).

Output layout: one parquet file per conv_id hash bucket with deterministic
names (``part-{bucket:05d}.parquet``), written tmp-then-rename, plus a
``_MANIFEST.jsonl`` with one lineage row per finished bucket:

    {"bucket": int, "rows": int, "decode_failures": int,
     "span_count": int, "wall_s": float, "file": str, "num_buckets": int,
     "input": str}

The manifest rows of a Stage B task are appended as soon as that task
finishes, after its part files are published, so a row always names a
complete file and a later task's failure keeps the finished buckets.
On resume, buckets present in the manifest are filtered out BEFORE the
expensive extraction stage, so a restarted job only pays for unfinished
partitions; ``run_extraction`` refuses rows of another ``num_buckets``.
Never one giant file; every bucket is independently retryable.

Every row also pins the input it was built from: ``input`` is
``input_fingerprint`` of the listed input files, a sha256 over their
sorted (relative path, size) pairs.  A resume whose listing gives another
fingerprint (a file added, removed, renamed or resized), or over rows
with no ``input`` (written by an older version), raises instead of mixing
old and new rows.  Names and sizes cost no footer read, so a finished
output is checked without reading its input.  A file rewritten in place
with the same size is not detected.  The pin is a field of every row, not
a header record, so every row stays one finished bucket.
"""

import hashlib
import json
import os

__all__ = ['manifest_path', 'load_done_buckets', 'append_manifest_rows',
           'input_fingerprint', 'reset_output']

MANIFEST_NAME = '_MANIFEST.jsonl'


def manifest_path(out_dir):
    return os.path.join(out_dir, MANIFEST_NAME)


def load_done_buckets(out_dir):
    """Buckets with a manifest row AND an existing output file.

    A torn last line (the driver died inside ``append_manifest_rows``:
    unparseable, or cut before its newline) is dropped, so its bucket is
    redone, and cut from the file, so the next append starts on a fresh
    line.  A corrupt line before the last still raises."""
    path = manifest_path(out_dir)
    done = {}
    if not os.path.exists(path):
        return done
    with open(path, 'rb') as f:
        lines = f.readlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            if not line.endswith(b'\n'):
                raise ValueError('manifest line cut before its newline')
            row = json.loads(line)
        except ValueError:
            if i < len(lines) - 1:
                raise
            with open(path, 'r+b') as f:       # drop the torn tail
                f.truncate(sum(len(x) for x in lines[:i]))
            break
        if row['rows'] == 0 and not row['file']:
            done[row['bucket']] = row       # empty bucket: done by fiat
            continue
        fpath = os.path.join(out_dir, row['file'])
        if os.path.exists(fpath):
            done[row['bucket']] = row
    return done


def input_fingerprint(files):
    """sha256 over the sorted (relative path, size) pairs of ``files``,
    the ``(path, relative path, size)`` triples ``list_input`` gives."""
    pairs = sorted([rel, size] for _, rel, size in files)
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()


def append_manifest_rows(out_dir, rows):
    path = manifest_path(out_dir)
    with open(path, 'a') as f:
        for row in rows:
            f.write(json.dumps(row) + '\n')


def reset_output(out_dir):
    """Delete manifest + bucket files (fresh run)."""
    if not os.path.isdir(out_dir):
        return
    for name in os.listdir(out_dir):
        if name == MANIFEST_NAME or (name.startswith('part-') and name.endswith('.parquet')):
            os.unlink(os.path.join(out_dir, name))
