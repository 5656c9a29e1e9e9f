"""Operator-level unit tests (SURVEY.md §5.3 level 1) — one section per §2
row family, pinning the reference quirks the goldens exercise only in
aggregate.  Pure pdfcore: no Ray, no oracle."""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from engine.pdfcore.lexers import (scan_cos, scan_content, scan_cmap,
                                   PdfLexError, NeedStreamLengthError)
from engine.pdfcore import filters
from engine.pdfcore.content import TextState, Mat, postfix_to_prefix
from engine.pdfcore.extract import split_literal, split_hex
from engine.pdfcore.fonts import (cid_width_array_to_map,
                                  differences_array_to_map)
from engine.pdfcore import encodings as enc
from engine.pdfcore.cos import PdfError


# ---------------------------------------------------------------- P1 COS lexer

def test_cos_float_before_int():
    toks = scan_cos('3.14 42 .5 -7')
    assert [(t.type, t.value) for t in toks] == [
        ('FLOAT', 3.14), ('INT', 42), ('FLOAT', 0.5), ('INT', -7)]


def test_cos_longest_match_keywords():
    # startxref must not lex as 'start'+'xref'; endstream vs endobj
    toks = scan_cos('startxref xref trailer endstream endobj')
    assert [t.type for t in toks] == ['xref_start', 'xref', 'trailer',
                                      'endstream', 'endobj']


def test_cos_name_and_hexstring():
    toks = scan_cos('/Name1 <48656C6C6F> (lit (nested) s)')
    assert toks[0].type == 'NAME' and toks[0].value == 'Name1'
    assert toks[1].type == 'HEXSTRING' and toks[1].value == '48656C6C6F'
    assert toks[2].type == 'LIT' and toks[2].value == 'lit (nested) s'


def test_cos_stream_two_phase():
    body = '<< /Length 5 >>\nstream\r\nHELLO\nendstream'
    with pytest.raises(NeedStreamLengthError) as ei:
        scan_cos(body)
    assert ei.value.tokens  # carries tokens seen so far
    toks = scan_cos(body, streamlength=5)
    sv = [t for t in toks if t.type == 'stream']
    assert sv[0].value == 'HELLO'


def test_cos_bad_char_raises():
    with pytest.raises(PdfLexError):
        scan_cos('\x01')


# ------------------------------------------------------- P3 content lexer

def test_content_longest_match_ops():
    # scn before sc before s; f* vs f; T* vs TJ/Tj
    toks = scan_content('scn sc s f* f T* BT ET')
    assert [t.type for t in toks] == ['scn', 'sc', 's', 'fstar', 'f',
                                      'Tstar', 'BT', 'ET']


def test_content_escaped_paren_parity():
    toks = scan_content(r'(a\(b) Tj')
    assert toks[0].type == 'LIT' and toks[0].value == 'a(b'


def test_content_percent_is_error():
    with pytest.raises(PdfLexError):
        scan_content('% comment')


# ---------------------------------------------------- P4 postfix→prefix

def _prefix(src):
    return postfix_to_prefix(scan_content(src))['tokens']


def test_arity_families():
    toks = _prefix('q 1 0 0 1 5 5 cm BT /F1 12 Tf 1 2 Td (x) Tj ET Q')
    assert [t.type for t in toks] == ['q', 'cm', 'BT', 'Tf', 'Td', 'Tj', 'ET', 'Q']
    cm = toks[1]
    assert [v.value for v in cm.value] == [1, 0, 0, 1, 5, 5]


def test_tj_array_and_dash():
    toks = _prefix('BT [(a) -120 (b)] TJ [2 1] 0 d ET')
    assert [t.type for t in toks] == ['BT', 'TJ', 'd', 'ET']
    tj = toks[1]
    kinds = [t.type for t in tj.value]
    assert kinds == ['LIT', 'INT', 'LIT']


def test_tj_at_index_zero_cloned_drop_bug():
    """Cloned reference bug (text.py:536 ``while j > 0``): an array-operand
    op whose ARR_START sits at token index 0 is silently DROPPED — both
    engines lose it without error."""
    assert _prefix('[(a)] TJ') == []
    assert _prefix('[2 1] 0 d') == []


def test_variadic_scn():
    toks = _prefix('0.1 0.2 0.3 scn 1 sc')
    assert toks[0].type == 'scn' and len(toks[0].value) == 3
    assert toks[1].type == 'sc' and len(toks[1].value) == 1


# --------------------------------------------------------- D1/D2 filters

def test_flate_predictor0_roundtrip():
    raw = b'The quick brown fox'
    assert filters.flate_decode(zlib.compress(raw), {'Predictor': 0}) == raw


def test_png_up_predictor():
    # two rows of 3 columns; row1 = row0 + delta (mod 256)
    row0 = bytes([10, 20, 30])
    delta = bytes([1, 2, 253])
    data = bytes([2]) + row0 + bytes([2]) + delta
    out = filters.png_up(data, {'Columns': 3})
    assert out[:3] == row0
    assert out[3:] == bytes([(10 + 1) % 256, (20 + 2) % 256, (30 + 253) % 256])


def test_png_up_bad_row_predictor():
    data = bytes([2, 1, 1, 1, 7, 1, 1, 1])
    with pytest.raises(ValueError):
        filters.png_up(data, {'Columns': 3})


def test_unknown_filter_raises():
    with pytest.raises(ValueError):
        filters.decode_stream({'Filter': 'LZWDecode'}, 'x')


# ------------------------------------------------------------ P5/P6 CMaps

_CMAP = """
/CIDInit /ProcSet findresource begin
begincmap
2 begincodespacerange <00> <FF> <0000> <FFFF> endcodespacerange
2 beginbfchar <41> <0058> <42> <0059> endbfchar
1 beginbfrange <50> <52> <0061> endbfrange
endcmap
"""


def test_cmap_bfchar_bfrange_precedence():
    mapper = enc.build_cmap_mapper(_CMAP)
    assert mapper(0x41) == 'X'
    assert mapper(0x42) == 'Y'
    assert mapper(0x50) == 'a' and mapper(0x52) == 'c'   # range offset
    with pytest.raises(KeyError):
        mapper(0x99)                                      # unmapped


def test_identity_mappers():
    assert enc.identity_h_mapper()(0x2603) == '☃'
    # Identity-V is unusable in the reference (usecmap unlexable + self.f
    # bug, fontcache.py:406,435) — the engine refuses identically
    with pytest.raises(PdfError):
        enc.identity_v_mapper()


# ----------------------------------------------------------- F3/F7/F8/F10

def test_differences_auto_increment():
    m = differences_array_to_map([65, 'A1', 'A2', 70, 'B1'])
    assert m == {65: 'A1', 66: 'A2', 70: 'B1'}


def test_cid_width_both_patterns():
    # pattern 1: start [w...]; pattern 2: lo hi w
    m = cid_width_array_to_map([1, [500, 600], 10, 12, 250])
    assert m == {1: 500, 2: 600, 10: 250, 11: 250, 12: 250}


def test_winansi_encoding_map_quirks():
    win = enc.encoding_map('WinAnsiEncoding')
    assert win[0o101] == 'A'
    assert 0o225 in win and win[0o225] == 'bullet'


def test_glyph_name_to_unicode():
    assert enc.glyph_name_to_unicode('A') == 'A'
    assert enc.glyph_name_to_unicode('bullet') == '•'
    assert enc.glyph_name_to_unicode('nosuchglyphname') is None


# ----------------------------------------------------------- I4/I5 text math

def test_td_tm_tlm_coupling():
    t = TextState()
    t.text_begin()
    t.do_Td(10, 20)
    assert (t.Tm.E, t.Tm.F) == (10.0, 20.0)
    t.do_Td(1, 2)        # relative to Tlm (= previous line matrix)
    assert (t.Tm.E, t.Tm.F) == (11.0, 22.0)


def test_TD_sets_negative_TL_and_Tstar_sign():
    t = TextState()
    t.text_begin()
    t.do_TD(5, -14)
    assert t.TL == 14.0
    before = t.Tm.F
    t.do_Tstar()         # cloned quirk: passes +TL (moves UP, not down)
    assert t.Tm.F == before + 14.0


def test_tj_advance_formula():
    t = TextState()
    t.text_begin()
    t.set_Tfs(12.0)
    t.Tc = 1.0
    t.Tw = 2.0
    t.set_Tz(50)

    class G:
        width = 500.0
    t.do_Tj(None, G())   # glyph advance
    assert t.Tm.E == ((500.0 / 1000.0) * 12.0 + 1.0 + 2.0) * 0.5
    e0 = t.Tm.E
    t.do_Tj(-100.0, None)  # TJ kern
    assert t.Tm.E == e0 + ((0.0 - -100.0) / 1000.0 * 12.0) * 0.5


def test_mat_multiply_layout():
    a = Mat(1, 2, 3, 4, 5, 6)
    i = Mat.identity()
    r = a * i
    assert (r.A, r.B, r.C, r.D, r.E, r.F) == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    tm = a.translate_mul(10.0, 20.0)
    full = Mat(1, 0, 0, 1, 10, 20) * a
    assert (tm.A, tm.B, tm.C, tm.D, tm.E, tm.F) == \
        (full.A, full.B, full.C, full.D, full.E, full.F)


# ------------------------------------------------------------- I10 splitters

def test_split_literal_escapes():
    assert split_literal(r'a\nb\tc') == list('a\nb\tc')
    assert split_literal(r'\101\102') == ['A', 'B']
    assert split_literal(r'\7x') == ['\x07', 'x']         # 1-digit octal
    assert split_literal('a\\\\b') == ['a', '\\', 'b']


def test_split_literal_escaped_paren_clones_reference_bug():
    # the reference's '\(' branch references an undefined name (lis typo,
    # __init__.py:697) — reachable input must raise, not succeed
    with pytest.raises(Exception):
        split_literal(r'\(')


def test_split_hex_padding_and_grouping():
    assert split_hex('414', 1) == ['A', '@']   # odd length pads with '0'
    assert split_hex('00410042', 2) == ['\x41', '\x42']


# --------------------------------------------- P7/F12 AFM kerning/ligatures

def test_afm_kerning_and_ligatures_match_reference():
    """Parse every standard AFM with BOTH parsers (engine parse_afm vs the
    reference's FontMetricsData_String via the ply shim) and compare the
    full kern-pair dict plus ligature records (reference fontmetrics.py:
    116-292, parser/__init__.py:1186-1222)."""
    import os
    import zipfile
    from engine.pdfcore import afm as eafm
    from engine.pdfcore import encodings as _enc
    import oracle

    if not oracle.oracle_available():
        import pytest
        pytest.skip('reference oracle unavailable')
    oracle._ensure_paths()
    from pypdfproc.fontmetrics import FontMetricsData_String

    zpath = os.path.join(_enc.DATA_DIR, 'StandardFonts_AFM.zip')
    with zipfile.ZipFile(zpath) as z:
        names = z.namelist()
        assert names
        for fname in names:
            txt = z.read(fname).decode('latin-1')
            mine = eafm.parse_afm(txt)
            ref = FontMetricsData_String(txt)
            # kern pairs: identical key set and (kx, 0) values
            assert mine.kern_pairs == ref.Kerning['Pairs'], fname
            # ligatures: same count, same (base glyph name | None,
            # successor, ligature) triples INCLUDING the cloned lastchar
            # off-by-one (base = previous committed char dict)
            def trip(recs):
                return [((r['base'] or {}).get('N'), r['successor'],
                         r['ligature']) for r in recs]
            assert trip(mine.ligatures) == trip(ref.Ligatures), fname
            # accessor parity on every base glyph that leads a kern pair
            firsts = {k[0] for k in ref.Kerning['Pairs']}
            for ch in sorted(firsts)[:5]:
                want = {k[1]: v for k, v in ref.Kerning['Pairs'].items()
                        if k[0] == ch}
                assert mine.get_kerning_pairs_for_char(ch) == want


def test_afm_ligature_accessors():
    from engine.pdfcore.afm import parse_afm
    txt = (
        'StartFontMetrics 4.1\n'
        'FontName Demo\n'
        'StartCharMetrics 3\n'
        'C 101 ; WX 444 ; N e ; B 0 0 0 0 ;\n'
        'C 102 ; WX 333 ; N f ; L i fi ; L l fl ;\n'
        'C 105 ; WX 278 ; N i ; B 0 0 0 0 ;\n'
        'EndCharMetrics\n'
        'StartKernData\n'
        'StartKernPairs 2\n'
        'KPX f i -20\n'
        'KPX e v -15\n'
        'EndKernPairs\n'
        'EndKernData\n'
        'EndFontMetrics\n')
    fm = parse_afm(txt)
    # cloned off-by-one: base of f's ligatures is the PREVIOUS char (e)
    assert [l['base']['N'] for l in fm.ligatures] == ['e', 'e']
    e = fm.get_character('e')
    assert [l['ligature'] for l in fm.get_ligatures_forward(e)] == ['fi', 'fl']
    assert fm.get_ligatures_backward('fl')[0]['successor'] == 'l'
    assert fm.get_kerning_pairs_for_char('f') == {'i': (-20, 0)}
    assert fm.get_kerning_pairs_for_char('e') == {'v': (-15, 0)}
    assert fm.get_kerning_pairs_for_char('z') == {}


# ------------------------------------- generated documents, text by design

@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_generated_pdf_extracts_what_it_draws(shared_fonts, seed):
    """Random documents from the benchmark's generator (1-4 pages, Flate or
    plain streams, Tj and TJ with implied-space kerns, font switches) know
    their text, glyph and page counts by construction; the kernel must
    return exactly those, with no reference implementation needed."""
    import random
    from engine.pdfcore.extract import extract_turn
    from perfbench.corpus import build_unique_pdf

    payload, text, n_spans, n_pages = build_unique_pdf(
        random.Random(seed), 'Doc%d' % seed)
    got = extract_turn(payload, shared_fonts)
    assert got['decode_ok'], got['error']
    assert (got['text'], got['n_spans'], got['n_pages']) == (
        text, n_spans, n_pages)


# ------------------------------------------- T1-T2 render error surfaces

def test_render_error_surfaces(shared_fonts):
    """Operator sequences that fail (or nearly fail) mid-string: each must
    surface the reference's error, in the reference's order, with the
    glyphs drawn before it counted.  One page, /F1 = Type1 Helvetica."""
    from gen_pdf import _Builder, _skeleton
    from engine.pdfcore.extract import extract_turn

    def run(content):
        b = _Builder()
        _skeleton(b, [4])
        b.add_stream(4, b"", content)
        b.add(5, b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
        r = extract_turn(b.build(), shared_fonts, collect_spans=True)
        return r['text'], r['n_spans'], r['decode_ok'], r['error'], r['spans']

    cases = [
        # an empty string draws nothing, so no font is needed
        (b"BT 72 720 Td () Tj ET", ('', 0, True, '', [])),
        (b"BT /F9 12 Tf 72 720 Td () Tj ET",
         ('', 0, False, 'PdfError: Unrecognize font name (F9)', [])),
        # no BT: the glyph resolves, then Tm is missing
        (b"/F1 12 Tf (A) Tj",
         ('', 0, False, "AttributeError: 'NoneType' object has no attribute 'A'", [])),
        # no BT: the first glyph is looked up before Tm is read
        (b"/F1 12 Tf (\\001) Tj",
         ('', 0, False,
          'PdfError: Unable to find character code 1 in encoding map for encoding None',
          [])),
        # no Tf: the font lookup fails before Tm is read
        (b"(A) Tj", ('', 0, False, 'PdfError: Unrecognize font name (None)', [])),
        # a kern with no font size fails in the advance
        (b"BT 72 720 Td [-300 (A)] TJ ET",
         ('', 0, False,
          "TypeError: unsupported operand type(s) for *: 'float' and 'NoneType'", [])),
        # Q restores Tm; the 24 pt string does not move B or C
        (b"BT /F1 12 Tf 72 720 Td q /F1 24 Tf (A) Tj Q [(B) -300 (C)] TJ ET",
         ('\nAB C', 3, True, '',
          [(0, 72.0, 720.0, 'A', 65, 667.0), (0, 72.0, 720.0, 'B', 66, 667.0),
           (0, 83.604, 720.0, 'C', 67, 722.0)])),
        # the glyph drawn before the failing code is counted; the failed
        # page's text never becomes a page
        (b"BT /F1 12 Tf 72 720 Td (A\\001B) Tj ET",
         ('', 1, False,
          'PdfError: Unable to find character code 1 in encoding map for encoding None',
          [(0, 72.0, 720.0, 'A', 65, 667.0)])),
        (b"BT /F1 12 Tf 72 720 Td <4142> Tj ET",
         ('', 0, False, "NotImplementedError: Unknown encoding for HEXSTRING: 'None'", [])),
    ]
    for content, want in cases:
        assert run(content) == want, content
