"""Text analysis over the ``documents`` table: token counting, quality
scoring, language-ID, md5 fingerprinting and stopword scrubbing.

All hot paths are vectorized pyarrow.compute regex/string kernels over
zero-copy Arrow batches (``batch_format="pyarrow"``); nothing iterates
Python rows except the md5 loops (hashlib is C).
Each stage is stateless → plain task-based ``map_batches`` (no actor pool
needed, no shuffle at all: embarrassingly parallel per block at 100 TB).
"""

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .common import round_half_up, read_table

__all__ = ['doc_token_stats', 'doc_quality', 'lang_id', 'fingerprint_md5',
           'doc_scrub', 'doc_token_bpe',
           'TOKEN_RE', 'BPE_RE',
           'STOPWORD_RE', 'PUNCT_RE', 'DIGIT_RE', 'LANG_MARKERS']

# Regexes shared verbatim with the DuckDB oracles (both engines are RE2).
TOKEN_RE = r'\S+'
# BPE-ish pre-tokenizer (GPT-2-style word/number/punct splits, RE2-safe:
# no lookahead) — the unit LLM token estimates are based on.
BPE_RE = r" ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"
NONSPACE_RE = r'\S'
STOPWORD_RE = r'\b(the|a|of|to|and|in|is|it|that|for|on|as|with|by)\b'
PUNCT_RE = r'[.,;:!?]'
DIGIT_RE = r'[0-9]'

# Language marker profiles (n-gram-heuristic language ID).  Tiebreak =
# first-listed wins; the oracle SQL reproduces this with a CASE ladder in
# the same order.
LANG_MARKERS = [
    ('en', r'\b(the|a|and|of|to)\b'),
    ('de', r'\b(der|die|das|und|ist)\b'),
    ('fr', r'\b(le|la|les|et|est)\b'),
    ('es', r'\b(el|los|las|y|es)\b'),
    ('zh', '[一-鿿]'),
]


def _read_docs(sf_dir, columns):
    return read_table(sf_dir, 'documents', columns=columns)


def _count_re(col, pattern):
    return pc.cast(pc.count_substring_regex(col, pattern=pattern), pa.int64())


def doc_token_stats(sf_dir):
    """Per-doc token count, char count, avg token length (half-up r4)."""
    def stats(batch: pa.Table) -> pa.Table:
        text = batch.column('text')
        n_tokens = _count_re(text, TOKEN_RE)
        n_nonspace = _count_re(text, NONSPACE_RE)
        nt = n_tokens.to_numpy(zero_copy_only=False).astype(np.float64)
        ns = n_nonspace.to_numpy(zero_copy_only=False).astype(np.float64)
        avg = np.where(nt > 0, round_half_up(np.divide(ns, np.maximum(nt, 1.0)), 4), 0.0)
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'n_tokens': n_tokens,
            'n_chars_calc': pc.cast(pc.utf8_length(text), pa.int64()),
            'avg_token_len': pa.array(avg, pa.float64()),
        })
    return _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        stats, batch_format='pyarrow', zero_copy_batch=True)


def doc_token_bpe(sf_dir):
    """BPE-ish token count per doc (LLM-token estimate) + chars/token."""
    def stats(batch: pa.Table) -> pa.Table:
        text = batch.column('text')
        n_bpe = _count_re(text, BPE_RE)
        n_chars = pc.cast(pc.utf8_length(text), pa.int64())
        nb = n_bpe.to_numpy(zero_copy_only=False).astype(np.float64)
        nc = n_chars.to_numpy(zero_copy_only=False).astype(np.float64)
        cpt = np.where(nb > 0, round_half_up(nc / np.maximum(nb, 1.0), 4), 0.0)
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'n_bpe_tokens': n_bpe,
            'chars_per_token': pa.array(cpt, pa.float64()),
        })
    return _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        stats, batch_format='pyarrow', zero_copy_batch=True)


# Quality keep-gate thresholds: doc_quality is their one home.  Its
# DuckDB oracle in registry.py spells the same literals; change both.
QUALITY_MIN_TOKENS = 5
QUALITY_MAX_TOKENS = 2000
QUALITY_MIN_STOPWORD_RATIO = 0.01


def quality_signals(text_col):
    """The quality gate over a text column: returns (n_tokens int64
    Arrow array, n_stopwords int64 Arrow array, stopword_ratio float64
    ndarray half-up r6, keep bool ndarray)."""
    n_tokens = _count_re(text_col, TOKEN_RE)
    n_stop = _count_re(text_col, STOPWORD_RE)
    nt = n_tokens.to_numpy(zero_copy_only=False)
    st = n_stop.to_numpy(zero_copy_only=False).astype(np.float64)
    ratio = np.where(nt > 0, round_half_up(st / np.maximum(nt, 1.0), 6), 0.0)
    keep = (nt >= QUALITY_MIN_TOKENS) & (nt <= QUALITY_MAX_TOKENS) \
        & (ratio > QUALITY_MIN_STOPWORD_RATIO)
    return n_tokens, n_stop, ratio, keep


def doc_quality(sf_dir):
    """Quality scoring: stopword/punct/digit counts, stopword ratio (r6),
    boolean keep-gate — the standard corpus-hygiene signals."""
    def quality(batch: pa.Table) -> pa.Table:
        text = batch.column('text')
        n_tokens, n_stop, ratio, is_quality = quality_signals(text)
        n_punct = _count_re(text, PUNCT_RE)
        n_digit = _count_re(text, DIGIT_RE)
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'n_tokens': n_tokens,
            'n_stopwords': n_stop,
            'n_punct': n_punct,
            'n_digits': n_digit,
            'stopword_ratio': pa.array(ratio, pa.float64()),
            'is_quality': pa.array(is_quality, pa.bool_()),
        })
    return _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        quality, batch_format='pyarrow', zero_copy_batch=True)


def lang_id(sf_dir):
    """Marker-word language ID: argmax of per-language marker counts,
    first-listed language wins ties; compared against the ``lang`` label."""
    def ident(batch: pa.Table) -> pa.Table:
        pred = _predict_lang(batch.column('text'))
        label = batch.column('lang').to_numpy(zero_copy_only=False)
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'pred_lang': pa.array(pred, pa.string()),
            'lang': batch.column('lang'),
            'is_match': pa.array(pred == label, pa.bool_()),
        })
    return _read_docs(sf_dir, ['doc_id', 'text', 'lang']).map_batches(
        ident, batch_format='pyarrow', zero_copy_batch=True)


def fingerprint_md5(sf_dir):
    """Exact-dup fingerprint: md5 hex of the utf-8 text (C-speed loop)."""
    def fp(batch: pa.Table) -> pa.Table:
        fps = [hashlib.md5(t.encode('utf-8')).hexdigest()
               for t in batch.column('text').to_pylist()]
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'fp': pa.array(fps, pa.string()),
        })
    return _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        fp, batch_format='pyarrow', zero_copy_batch=True)


def doc_scrub(sf_dir):
    """CORPUS SCRUBBING transform: strip the stopword list out of every
    document (the shape of PII/URL/boilerplate redaction — this corpus is
    synthetic space-separated tokens, so the stopword list stands in for
    the redaction pattern) and emit the cleaned text's md5, length and
    removal count.  One RE2 ``replace_substring_regex`` pass per batch —
    a pure map stage, no shuffle; the oracle runs the IDENTICAL pattern
    through DuckDB's RE2 ``regexp_replace(..., 'g')``, and the md5 pins
    the full scrubbed BYTES, not just summary stats."""
    pattern = STOPWORD_RE + ' ?'

    def scrub(batch: pa.Table) -> pa.Table:
        clean = pc.utf8_trim(pc.replace_substring_regex(
            batch.column('text'), pattern=pattern, replacement=''), ' ')
        md5s = [hashlib.md5(t.encode('utf-8')).hexdigest()
                for t in clean.to_pylist()]
        return pa.table({
            'doc_id': batch.column('doc_id'),
            'clean_md5': pa.array(md5s, pa.string()),
            'clean_len': pc.cast(pc.utf8_length(clean), pa.int64()),
            'n_removed': _count_re(batch.column('text'), STOPWORD_RE),
        })

    return _read_docs(sf_dir, ['doc_id', 'text']).map_batches(
        scrub, batch_format='pyarrow', zero_copy_batch=True)


def _predict_lang(text_col):
    """The language predictor behind lang_id: argmax of marker counts,
    first listed wins ties, the order the CASE-ladder oracle follows."""
    scores = np.stack([
        _count_re(text_col, pat).to_numpy(zero_copy_only=False)
        for _, pat in LANG_MARKERS])               # (L, n)
    langs = np.array([l for l, _ in LANG_MARKERS])
    return langs[np.argmax(scores, axis=0)]        # first max wins
