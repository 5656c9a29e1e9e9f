"""Driver contract for the flagship per-turn PDF-extraction job (Ray Data).

``entry()`` runs the extraction pipeline on a deterministic transcripts
corpus (BASELINE.json input_hint shape) derived from sf0.001.
``queries()`` exposes the four extraction queries; ``oracle_sql()`` gives
DuckDB equivalents for the three that are SQL-checkable.

Ray is initialised by the driver before import; nothing here calls
ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any


def _transcripts_dir(sf_dir: str) -> str:
    """Synthesized corpus keyed by the sf dir's scale factor
    (an sf dir named 'sf0.01' → sf '0.01')."""
    from engine.rayjob.transcripts import ensure_corpus
    base = os.path.basename(os.path.normpath(sf_dir))
    return ensure_corpus(base[2:] if base.startswith('sf') else base)


def entry() -> Any:
    """Flagship: transcripts(sf0.001) → per-turn PDF text extraction."""
    from engine.rayjob.pipeline import build_extract_dataset
    return build_extract_dataset(_transcripts_dir('/root/testdata/sf0.001'))


def _extract_fulltext(sf_dir: str) -> Any:
    from engine.rayjob.pipeline import build_extract_dataset
    ds = build_extract_dataset(_transcripts_dir(sf_dir))
    # 'error' stays in the pipeline output but not the oracle-compared
    # query: the expected tables carry the reference's SEMANTIC surface
    # (text/spans/pages/decode_ok); error strings are engine diagnostics
    # with engine-specific wording.
    return ds.drop_columns(['error'])


def _extract_spans(sf_dir: str) -> Any:
    from engine.rayjob.pipeline import build_spans_dataset
    return build_spans_dataset(_transcripts_dir(sf_dir))


def _engine_fingerprint() -> str:
    """md5 over the extraction-relevant source files: a resume dir is
    only trusted for output produced by the SAME engine code, so a code
    change can never serve stale sink results (the corpus version is
    carried separately in the corpus dir basename)."""
    import glob
    import hashlib

    here = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.md5()
    for pat in ('engine/pdfcore/*.py', 'engine/rayjob/*.py'):
        for p in sorted(glob.glob(os.path.join(here, pat))):
            with open(p, 'rb') as f:
                h.update(f.read())
    return h.hexdigest()[:10]


def _extract_to_parquet(sf_dir: str) -> Any:
    """The resumable SINK as a first-class query: run the full flagship
    pipeline (extract → external-spill shuffle → per-bucket ordered
    parquet + manifest) and return the per-bucket manifest (rows-only:
    bucket assignment is crc32, not SQL-expressible — the write path is
    oracle-adjacent via extract_fulltext, whose rows these files hold,
    and byte-tested in tests/test_pipeline.py).  Re-running resumes; the
    out dir is keyed by (corpus version, engine fingerprint) so resume
    can never return output of different code or a different corpus."""
    import pyarrow as pa

    from engine.rayjob import checkpoint
    from engine.rayjob.pipeline import run_extraction

    corpus = _transcripts_dir(sf_dir)
    out_dir = '/tmp/graft_extract_out/%s-%s' % (
        os.path.basename(os.path.normpath(corpus)), _engine_fingerprint())
    run_extraction(corpus, out_dir, resume=True)
    rows = sorted(checkpoint.load_done_buckets(out_dir).values(),
                  key=lambda r: r['bucket'])
    return pa.table({
        'bucket': pa.array([r['bucket'] for r in rows], pa.int64()),
        'rows': pa.array([r['rows'] for r in rows], pa.int64()),
        'decode_failures': pa.array([r['decode_failures'] for r in rows],
                                    pa.int64()),
        'span_count': pa.array([r['span_count'] for r in rows], pa.int64()),
    })


def _extract_metrics(sf_dir: str) -> Any:
    """Corpus-level metrics from one extraction: the Dataset is
    materialized, so only its three count columns are brought to the
    driver and summed there."""
    import pandas as pd
    from engine.rayjob.pipeline import build_extract_dataset
    df = build_extract_dataset(_transcripts_dir(sf_dir)).select_columns(
        ['decode_ok', 'n_spans', 'n_pages']).to_pandas()
    return pd.DataFrame([{
        'n_turns': len(df),
        'decode_failures': int((~df.decode_ok).sum()),
        'total_spans': int(df.n_spans.sum()),
        'total_pages': int(df.n_pages.sum()),
    }])


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        'extract_fulltext': _extract_fulltext,
        'extract_spans': _extract_spans,
        'extract_metrics': _extract_metrics,
        'extract_to_parquet': _extract_to_parquet,   # rows-only (sink)
    }


def oracle_sql() -> dict[str, str]:
    """INDEPENDENT driver oracles for the extraction queries.

    The corpus draws every payload from the deterministic variant pool, and
    ``ensure_expected`` ships reference-derived expected tables beside it
    (built from tests/golden/pdf_text — the unmodified reference library's
    own GetFullText pages and 'glyph draw' events, generated by
    tests/gen_golden.py; never from this engine).  Each query is then a
    pure SQL join on ``md5(payload)``:

    - extract_fulltext: per-turn text / span / page counts / decode_ok
      (reference __init__.py:548-620 semantics);
    - extract_spans: one row per glyph draw with exact float64 positions
      (reference __init__.py:524 callback surface);
    - extract_metrics: the corpus-level aggregate of the same.

    The corpus is the one for the sf dir the driver compares at
    (``$GRAFT_ORACLE_SF_DIR``, default: the sf0.01 test tables).
    """
    from engine.rayjob.transcripts import ensure_expected
    corpus = _transcripts_dir(os.environ.get('GRAFT_ORACLE_SF_DIR',
                                             '/root/testdata/sf0.01'))
    exp = ensure_expected(corpus)
    t = ("(SELECT conv_id, turn_idx, md5(text) AS fp "
         "FROM read_parquet('%s/*.parquet'))" % corpus)
    turns = "read_parquet('%s/expected_turns.parquet')" % exp
    spans = "read_parquet('%s/expected_spans.parquet')" % exp
    return {
        'extract_fulltext': """
SELECT t.conv_id, t.turn_idx, e.text, e.n_spans, e.n_pages, e.decode_ok
FROM {t} t JOIN {turns} e USING (fp)
""".format(t=t, turns=turns),
        'extract_spans': """
SELECT t.conv_id, t.turn_idx, s.page, s.x, s.y, s."unicode", s.cid, s.width
FROM {t} t JOIN {spans} s USING (fp)
""".format(t=t, spans=spans),
        'extract_metrics': """
SELECT count(*)::BIGINT AS n_turns,
       sum(CASE WHEN e.decode_ok THEN 0 ELSE 1 END)::BIGINT AS decode_failures,
       sum(e.n_spans)::BIGINT AS total_spans,
       sum(e.n_pages)::BIGINT AS total_pages
FROM {t} t JOIN {turns} e USING (fp)
""".format(t=t, turns=turns),
    }
