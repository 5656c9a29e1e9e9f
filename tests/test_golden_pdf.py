"""Golden end-to-end: engine output must be byte-equal to the reference
oracle on every fixture variant (FIXTURES.md §3), including exact float
equality of every glyph-draw position."""

import json
import os
import glob

import pytest

from gen_pdf import build_variant
from engine.pdfcore.extract import extract_turn

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), 'golden', 'pdf_text')
_GOLDENS = sorted(glob.glob(os.path.join(_GOLDEN_DIR, '*.json')))


def _load(path):
    with open(path) as f:
        return json.load(f)


@pytest.mark.parametrize('path', _GOLDENS, ids=[os.path.basename(p)[:-5] for p in _GOLDENS])
def test_variant_matches_oracle(path, shared_fonts):
    g = _load(path)
    pdf = build_variant(g['variant'])
    r = extract_turn(pdf, shared_fonts, collect_spans=True)

    got = [[pg, repr(x), repr(y), u, cid, repr(w)]
           for (pg, x, y, u, cid, w) in r['spans']]

    if g['corrupt']:
        assert r['decode_ok'] is False
        assert r['text'] == ("".join(g['pages']) if g['pages'] is not None else "")
        # spans drawn before the failure must still match the reference
        assert got == (g['events'] or [])
        return

    assert r['decode_ok'] is True, r['error']
    assert r['pages'] == g['pages']
    assert r['text'] == "".join(g['pages'])

    # Exact parity of every glyph draw: page index, float positions
    # (repr-compared), unicode, cid, width
    assert got == g['events']


def test_all_variants_have_goldens():
    from gen_pdf import VARIANTS
    have = {os.path.basename(p)[:-5] for p in _GOLDENS}
    assert have == set(VARIANTS)


def test_width_stat_cache_purity_across_documents():
    """A preset-FirstChar/LastChar font (V23: clipped A-Z synthesis window,
    avg ≈ 700) must not poison the shared BaseFont-keyed width-stat cache
    used by pure synthesis (full Helvetica window, avg ≈ 510): the same
    TJ -300 kern inserts a space only under the full-window stats.  Both
    orders must give order-independent, golden-equal output (the ``pure``
    condition in fonts.get_font_widths, mirrored in
    Renderer._set_width_stats)."""
    from gen_pdf import _Builder, _skeleton
    from engine.pdfcore.extract import SharedFontState

    def full_window_doc():
        b = _Builder()
        _skeleton(b, [4])
        b.add_stream(4, b"", b"BT /F1 12 Tf 72 720 Td [(AB) -300 (CD)] TJ ET")
        b.add(5, b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
        return b.build()

    clipped = build_variant('V23')
    full = full_window_doc()

    # isolated expectations
    assert extract_turn(clipped, SharedFontState())['text'] == '\nABCD'
    assert extract_turn(full, SharedFontState())['text'] == '\nAB CD'

    # clipped first: must not write clipped stats into the shared cache
    shared = SharedFontState()
    assert extract_turn(clipped, shared)['text'] == '\nABCD'
    assert extract_turn(full, shared)['text'] == '\nAB CD'

    # full first: clipped doc must not read the full-window cache entry
    shared = SharedFontState()
    assert extract_turn(full, shared)['text'] == '\nAB CD'
    assert extract_turn(clipped, shared)['text'] == '\nABCD'


def test_type1_glyph_memo_purity_across_documents():
    """Standard Type1 glyphs are shared across documents per (BaseFont,
    Encoding): the same code must still draw each encoding's own glyph
    (0x27 is quoteright in StandardEncoding, quotesingle in WinAnsi), and
    an /Encoding dictionary must still fail as the reference's Type1 path
    does.  Fresh state per document, then one shared state in both
    orders, must give equal results."""
    from gen_pdf import _Builder, _skeleton
    from engine.pdfcore.extract import SharedFontState

    def helvetica_doc(encoding):
        b = _Builder()
        _skeleton(b, [4])
        b.add_stream(4, b"", b"BT /F1 12 Tf 72 720 Td [(A') -300 (B)] TJ ET")
        b.add(5, b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica"
                 + encoding + b" >>")
        return b.build()

    docs = [helvetica_doc(b""),
            helvetica_doc(b" /Encoding /WinAnsiEncoding"),
            helvetica_doc(b" /Encoding << /Differences [39 /quotesingle] >>")]
    alone = [extract_turn(d, SharedFontState(), collect_spans=True) for d in docs]
    assert [r['text'] for r in alone] == ['\nA\u2019 B', "\nA' B", '']
    assert [r['n_spans'] for r in alone] == [3, 3, 0]
    assert alone[2]['error'] == "TypeError: unhashable type: 'dict'"

    for order in ([0, 1, 2], [2, 1, 0]):
        shared = SharedFontState()
        for i in order:
            assert extract_turn(docs[i], shared, collect_spans=True) == alone[i]
        assert set(shared.type1_glyphs) == {('Helvetica', None),
                                            ('Helvetica', 'WinAnsiEncoding')}
