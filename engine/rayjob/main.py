"""CLI entry point for the flagship extraction job.

Run locally or submit to a cluster:

    python -m engine.rayjob.main --input /tmp/graft_transcripts/sf0.1 \
        --output /tmp/extract_out --num-buckets 64

    ray job submit --working-dir . -- \
        python -m engine.rayjob.main --input ... --output ...

The job is resumable: re-running with the same ``--output`` skips buckets
already present in the lineage manifest (``--no-resume`` forces a fresh
run).  Prints one JSON summary line (rows, decode failures, span counts,
turns/sec) — the per-partition detail lives in ``_MANIFEST.jsonl``.
"""

import argparse
import json
import sys


def main(argv=None):
    ap = argparse.ArgumentParser(description='transcripts → per-turn PDF text extraction')
    ap.add_argument('--input', required=True,
                    help='directory of transcripts parquet (conv_id, turn_idx, role, text, tool, ts)')
    ap.add_argument('--output', required=True, help='output directory (bucketed parquet + manifest)')
    ap.add_argument('--num-buckets', type=int, default=64,
                    help='output partitions; size so each is a few hundred MB at scale')
    ap.add_argument('--concurrency', type=int, default=None,
                    help='max concurrent extraction tasks (default: cluster CPUs)')
    ap.add_argument('--no-resume', action='store_true', help='ignore existing manifest')
    args = ap.parse_args(argv)

    import ray
    owns_session = not ray.is_initialized()   # the driver may own it
    if owns_session:
        # local or RAY_ADDRESS (an existing cluster ignores the flag);
        # the dashboard costs ~0.6 s of start-up and a one-job run never
        # looks at it
        ray.init(include_dashboard=False)

    from .pipeline import run_extraction
    summary = run_extraction(args.input, args.output,
                             num_buckets=args.num_buckets,
                             concurrency=args.concurrency,
                             resume=not args.no_resume)
    print(json.dumps(summary))
    if owns_session:
        ray.shutdown()
    return 0


if __name__ == '__main__':
    sys.exit(main())
