"""Operator-level unit tests (SURVEY.md §5.3 level 1) — one section per §2
row family, pinning the reference quirks the goldens exercise only in
aggregate.  Pure pdfcore, and at the end the Arrow column helpers of
``engine.rayjob.extract_stage``: no Ray, no oracle."""

import re
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
    assert [(t[0], t[1]) for t in toks] == [
        ('FLOAT', 3.14), ('INT', 42), ('FLOAT', 0.5), ('INT', -7)]


def test_cos_longest_match_keywords():
    # startxref must not lex as 'start'+'xref'; endstream vs endobj
    toks = scan_cos('startxref xref trailer endstream endobj')
    assert [t[0] for t in toks] == ['xref_start', 'xref', 'trailer',
                                      'endstream', 'endobj']


def test_cos_name_and_hexstring():
    toks = scan_cos('/Name1 <48656C6C6F> (lit (nested) s)')
    assert toks[0][0] == 'NAME' and toks[0][1] == 'Name1'
    assert toks[1][0] == 'HEXSTRING' and toks[1][1] == '48656C6C6F'
    assert toks[2][0] == 'LIT' and toks[2][1] == 'lit (nested) s'


def test_cos_stream_two_phase():
    body = '<< /Length 5 >>\nstream\r\nHELLO\nendstream'
    with pytest.raises(NeedStreamLengthError) as ei:
        scan_cos(body)
    assert ei.value.tokens  # carries tokens seen so far
    toks = scan_cos(body, streamlength=5)
    sv = [t for t in toks if t[0] == 'stream']
    assert sv[0][1] == 'HELLO'


def test_cos_bad_char_raises():
    with pytest.raises(PdfLexError):
        scan_cos('\x01')


# ------------------------------------------------------- P3 content lexer

def test_content_longest_match_ops():
    # scn before sc before s; f* vs f; T* vs TJ/Tj
    toks = scan_content('scn sc s f* f T* BT ET')
    assert [t[0] for t in toks] == ['scn', 'sc', 's', 'fstar', 'f',
                                      'Tstar', 'BT', 'ET']


def test_content_escaped_paren_parity():
    toks = scan_content(r'(a\(b) Tj')
    assert toks[0][0] == 'LIT' and toks[0][1] == 'a(b'


def test_content_percent_is_error():
    with pytest.raises(PdfLexError):
        scan_content('% comment')


# ---------------------------------------------------- P4 postfix→prefix

def _prefix(src):
    return postfix_to_prefix(scan_content(src))['tokens']


def test_arity_families():
    toks = _prefix('q 1 0 0 1 5 5 cm BT /F1 12 Tf 1 2 Td (x) Tj ET Q')
    assert [t[0] for t in toks] == ['q', 'cm', 'BT', 'Tf', 'Td', 'Tj', 'ET', 'Q']
    cm = toks[1]
    assert [v[1] for v in cm[1]] == [1, 0, 0, 1, 5, 5]


def test_tj_array_and_dash():
    toks = _prefix('BT [(a) -120 (b)] TJ [2 1] 0 d ET')
    assert [t[0] for t in toks] == ['BT', 'TJ', 'd', 'ET']
    tj = toks[1]
    kinds = [t[0] for t in tj[1]]
    assert kinds == ['LIT', 'INT', 'LIT']


def test_tj_at_index_zero_cloned_drop_bug():
    """Cloned reference bug (text.py:536 ``while j > 0``): an array-operand
    op whose ARR_START sits at token index 0 is silently DROPPED — both
    engines lose it without error."""
    assert _prefix('[(a)] TJ') == []
    assert _prefix('[2 1] 0 d') == []


def test_variadic_scn():
    toks = _prefix('0.1 0.2 0.3 scn 1 sc')
    assert toks[0][0] == 'scn' and len(toks[0][1]) == 3
    assert toks[1][0] == 'sc' and len(toks[1][1]) == 1


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
        # kerns before, between and after strings, with Tz, Tc, Tw and a
        # scaled Tm: each advance lands where the next glyph draws
        (b"BT /F1 12 Tf 50 Tz 2 Tc 1 Tw 0.5 0 0 2 72 720 Tm "
         b"[(AB) -300 (C) 120.5 (D)] TJ (E) Tj ET",
         ('\nAB CDE', 5, True, '',
          [(0, 72.0, 720.0, 'A', 65, 667.0), (0, 74.751, 720.0, 'B', 66, 667.0),
           (0, 78.40200000000002, 720.0, 'C', 67, 722.0),
           (0, 80.9565, 720.0, 'D', 68, 722.0), (0, 83.8725, 720.0, 'E', 69, 667.0)])),
        (b"BT /F1 12 Tf 72 720 Td [-300 (A) -300] TJ 0 0 Td [(B)] TJ ET",
         (' \nA B', 2, True, '',
          [(0, 75.6, 720.0, 'A', 65, 667.0), (0, 87.204, 720.0, 'B', 66, 667.0)])),
        # a name in a TJ array fails after the glyphs before it are drawn
        (b"BT /F1 12 Tf 72 720 Td [(A) 300 /N (B)] TJ ET",
         ('', 1, False, 'PdfError: Unrecognized Tj token type: NAME',
          [(0, 72.0, 720.0, 'A', 65, 667.0)])),
    ]
    for content, want in cases:
        assert run(content) == want, content


# ------------------------------ work budgets: a hostile payload fails its turn

def _timed_turn(payload, shared):
    import time
    from engine.pdfcore.extract import extract_turn
    t = time.perf_counter()
    r = extract_turn(payload.decode('latin-1'), shared)
    return r, time.perf_counter() - t


def test_xobject_fanout_fails_its_turn_within_budget(shared_fonts):
    """Form XObjects 31 levels deep, each drawing the next twice (~6 KB,
    2**31 content streams; depth 16 took 1.1 s before the budget, x4 per
    two levels): the rendered-operator budget ends the document in well
    under a second, as a failed turn, not a page error."""
    from engine.pdfcore.extract import MAX_RENDERED_OPS
    from gen_pdf import xobject_fanout
    r, wall = _timed_turn(xobject_fanout(30), shared_fonts)
    assert wall < 1.0
    assert (r['decode_ok'], r['text'], r['n_pages'], r['error']) == (
        False, '', 0, 'BudgetExceeded: more than %d operators rendered'
        % MAX_RENDERED_OPS)
    r, _ = _timed_turn(xobject_fanout(10), shared_fonts)   # 7,167 operators
    assert r['decode_ok'] and r['text'] == '\n' + 'A' * 1024


def test_form_xobject_lexed_once_per_document(shared_fonts, monkeypatch):
    """A depth-10 fan-out (2,047 draws, 7,167 operators) lexes each of its
    12 content streams once, with its text unchanged, and still charges
    every draw to the operator budget."""
    from engine.pdfcore import extract
    from gen_pdf import xobject_fanout
    lexed, content_ops = [], extract.content_ops
    monkeypatch.setattr(extract, 'content_ops',
                        lambda txt: lexed.append(txt) or content_ops(txt))
    r, _ = _timed_turn(xobject_fanout(10), shared_fonts)
    assert r['decode_ok'] and r['text'] == '\n' + 'A' * 1024
    assert len(lexed) == len(set(lexed)) == 12
    monkeypatch.setattr(extract, 'MAX_RENDERED_OPS', 7166)
    r, _ = _timed_turn(xobject_fanout(10), shared_fonts)
    assert r['error'] == 'BudgetExceeded: more than 7166 operators rendered'


def test_flate_bomb_fails_its_turn_within_budget(shared_fonts):
    """A ~66 KB content stream that inflates to 64 MiB stops at
    ``MAX_INFLATE`` bytes: a failed turn in well under a second."""
    from gen_pdf import flate_bomb
    r, wall = _timed_turn(flate_bomb(64), shared_fonts)
    assert wall < 1.0
    assert (r['decode_ok'], r['text'], r['n_pages'], r['error']) == (
        False, '', 0, 'BudgetExceeded: Flate stream inflates past %d bytes'
        % filters.MAX_INFLATE)


def test_glyph_repeat_fails_its_turn_within_budget(shared_fonts):
    """A 256 KiB literal in one XObject drawn 100 times (a ~1.8 KB
    payload; 3.4 s and 26 MB of text before the glyph budget): the
    ``MAX_GLYPHS`` budget, charged per string, fails the turn in well
    under a second.  Three draws of a 1 KiB literal stay within it."""
    from engine.pdfcore.extract import MAX_GLYPHS
    from gen_pdf import glyph_repeat
    r, wall = _timed_turn(glyph_repeat(256, 100), shared_fonts)
    assert wall < 1.0
    assert (r['decode_ok'], r['text'], r['n_pages'], r['error']) == (
        False, '', 0, 'BudgetExceeded: more than %d glyphs drawn' % MAX_GLYPHS)
    r, _ = _timed_turn(glyph_repeat(1, 3), shared_fonts)
    assert r['decode_ok'] and r['text'] == '\n' + 'A' * 3072


def test_content_repeat_fails_its_turn_within_budget(shared_fonts):
    """An 8 MiB blank XObject drawn 40 times (~9 KB; 4.8 s before the
    content-byte budget): each ``Do`` pays its stream's length again
    before it is lexed, so the second draw passes ``MAX_CONTENT_BYTES``
    and the turn fails in well under a second."""
    from engine.pdfcore.extract import MAX_CONTENT_BYTES
    from gen_pdf import content_repeat
    r, wall = _timed_turn(content_repeat(8, 40), shared_fonts)
    assert wall < 1.0
    assert (r['decode_ok'], r['text'], r['n_pages'], r['error']) == (
        False, '', 0, 'BudgetExceeded: more than %d content bytes rendered'
        % MAX_CONTENT_BYTES)
    r, _ = _timed_turn(content_repeat(1, 3), shared_fonts)
    assert r['decode_ok'] and r['text'] == '\nAAA'


def test_inflate_keeps_zlib_errors():
    """``filters.inflate`` gives ``zlib.decompress``'s bytes or error: a
    truncated or empty stream raises zlib's own error, bytes after the
    stream's end are ignored, and a stream of exactly ``MAX_INFLATE``
    bytes passes."""
    data = zlib.compress(bytes(range(256)) * 40)
    cases = [data, data[:len(data) // 2], data[:-1], b'', b'junk',
             data + b'trailing', zlib.compress(b' ' * filters.MAX_INFLATE)]
    for case in cases:
        try:
            want = zlib.decompress(case)
        except zlib.error as e:
            with pytest.raises(zlib.error) as got:
                filters.inflate(case)
            assert str(got.value) == str(e)
        else:
            assert filters.inflate(case) == want


# ------------------------------ T1-T2 the string-at-a-time text path

_HUGE = b'9' * 400 + b'.0'      # a FLOAT that reads as inf

# Content streams of a one-page document with /F1 Helvetica and /F2 a
# TrueType font whose 'A' is -0.0 wide: the render-error cases above,
# then strings the renderer's string path must refuse (a rotated or
# sheared Tm or cm, a skewed Tm with a rise, a -0.0 F, a -0.0 size at a
# -0.0 E, a rise that overflows x mid-string, sizes and kerns that
# overflow, a code with no glyph after drawn ones, a -0.0 width at a
# -0.0 E, nonzero Tc, Tw or Tz, a Tm that scales x) and ones it takes
# (with a rise, after kerns).  A signed zero must be the FLOAT -0.0: the
# INT -0 reads as 0.
_TEXT_PATH_CONTENTS = [
    b"BT 72 720 Td () Tj ET",
    b"BT /F9 12 Tf 72 720 Td () Tj ET",
    b"/F1 12 Tf (A) Tj",
    b"/F1 12 Tf (\\001) Tj",
    b"(A) Tj",
    b"BT 72 720 Td [-300 (A)] TJ ET",
    b"BT /F1 12 Tf 72 720 Td q /F1 24 Tf (A) Tj Q [(B) -300 (C)] TJ ET",
    b"BT /F1 12 Tf 72 720 Td (A\\001B) Tj ET",
    b"BT /F1 12 Tf 72 720 Td <4142> Tj ET",
    b"BT /F1 12 Tf 50 Tz 2 Tc 1 Tw 0.5 0 0 2 72 720 Tm "
    b"[(AB) -300 (C) 120.5 (D)] TJ (E) Tj ET",
    b"BT /F1 12 Tf 72 720 Td [-300 (A) -300] TJ 0 0 Td [(B)] TJ ET",
    b"BT /F1 12 Tf 72 720 Td [(A) 300 /N (B)] TJ ET",
    b"BT /F1 12 Tf 0 1 -1 0 72 720 Tm (ABC) Tj [(D) -300 (EF)] TJ ET",
    b"BT /F1 12 Tf 1 0.5 0 1 72 720 Tm (ABC) Tj ET",
    b"BT /F1 12 Tf 50 Tz 72 720 Td (AB) Tj ET",
    b"BT /F1 12 Tf 2 0 0 1 72 720 Tm (AB) Tj ET",
    b"0 1 -1 0 300 300 cm BT /F1 12 Tf 72 720 Td (ABC) Tj (DE) Tj ET",
    b"BT /F1 12 Tf 1 0 0.5 1 72 720 Tm 2 Tr (AB) Tj ET",
    b"BT /F1 12 Tf 2 Tr 72 720 Td (AB) Tj ET",
    b"BT /F1 12 Tf 2 Tc 3 Tw 150 Tz 72 720 Td (A B) Tj [(CD) -300 (E)] TJ ET",
    b"BT /F1 12 Tf -2 Tc 72 720 Td (AB) Tj ET",
    b"BT /F1 12 Tf 1 0 0 1 -0.0 -0.0 Tm (AB) Tj (C) Tj 1 -0.0 0 1 0 0 Tm (D) Tj ET",
    b"BT /F1 12 Tf 1 -0.0 0 1 72 -0.0 Tm [(A) -0.0 (B)] TJ ET",
    b"BT /F1 12 Tf 1 0 0 1 72 -0.0 Tm (AB) Tj ET",
    b"BT /F1 -0.0 Tf 1 0 0 1 -0.0 720 Tm (AB) Tj ET",
    b"BT /F1 -12 Tf 72 720 Td (AB) Tj ET",
    b"BT /F1 0 Tf 72 720 Td (AB) Tj ET",
    b"BT /F1 1" + b"0" * 305 + b".0 Tf 1 0 5" + b"0" * 307 + b".0 1 79" + b"0" * 306
    + b".0 720 Tm 2 Tr (ABCDEFGHIJKLMNOP) Tj ET",
    b"BT /F1 " + _HUGE + b" Tf 72 720 Td (AB) Tj (C) Tj ET",
    b"BT /F1 12 Tf 72 720 Td [(A) -" + _HUGE + b" (BC)] TJ (D) Tj ET",
    b"BT /F1 12 Tf " + _HUGE + b" 720 Td (AB) Tj ET",
    b"BT /F1 12 Tf 72 720 Td [(AB) -300 (C\\001D)] TJ ET",
    b"BT /F2 12 Tf 72 720 Td (BAB) Tj (BB) Tj ET",
    b"BT /F2 12 Tf 1 0 0 1 -0.0 720 Tm (A) Tj ET",
    b"BT /F1 12 Tf 72 720 Td (A\\(B) Tj <41> Tj ET",
    b"BT /F1 12 Tf 72 720 Td (Hello, world) Tj 0 -14 Td (it's) Tj "
    b"T* [(x) 20 (y) -900 (z)] TJ ET",
]


def _text_path_doc(content):
    from gen_pdf import _Builder, _skeleton
    b = _Builder()
    _skeleton(b, [4], resources=b"<< /Font << /F1 5 0 R /F2 6 0 R >> >>")
    b.add_stream(4, b"", content)
    b.add(5, b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    b.add(6, b"<< /Type /Font /Subtype /TrueType /BaseFont /Zero /FirstChar 65"
             b" /LastChar 66 /Widths [-0.0 500] /Encoding /WinAnsiEncoding >>")
    return b.build()


def test_text_path_equals_span_path(shared_fonts):
    """Without spans the renderer draws a whole string at a time where it
    can; with spans it always takes the glyph loop.  Both must give the
    same text, pages, glyph count and error: on every golden variant
    (whose text and glyph count they must also match) and on every
    ``_TEXT_PATH_CONTENTS`` document."""
    import glob
    import json
    import os
    from gen_pdf import build_variant
    from engine.pdfcore.extract import extract_turn

    keys = ('text', 'pages', 'n_spans', 'decode_ok', 'error')

    def both(pdf):
        fast = extract_turn(pdf, shared_fonts)
        full = extract_turn(pdf, shared_fonts, collect_spans=True)
        assert {k: fast[k] for k in keys} == {k: full[k] for k in keys}
        return fast

    goldens = sorted(glob.glob(os.path.join(
        os.path.dirname(__file__), 'golden', 'pdf_text', '*.json')))
    assert len(goldens) == 25
    for path in goldens:
        with open(path) as f:
            g = json.load(f)
        r = both(build_variant(g['variant']))
        assert r['text'] == ''.join(g['pages'] or []), g['variant']
        assert r['n_spans'] == len(g['events'] or []), g['variant']
        if not g['corrupt']:
            assert r['pages'] == g['pages'], g['variant']
    for content in _TEXT_PATH_CONTENTS:
        both(_text_path_doc(content))


def test_documents_freed_without_the_cyclic_gc(shared_fonts):
    """A document is freed by refcounting when ``extract_turn`` returns:
    with the cyclic GC off, the 25 goldens, 50 seed-7 ``unique_docs``
    documents and every ``_TEXT_PATH_CONTENTS`` document (the render-error
    cases among them), with and without spans, leave nothing unreachable.
    The typed views a document caches point back at it; left cached,
    they kept ~75 objects per document waiting for the cyclic GC."""
    import gc
    import random
    from gen_pdf import build_variant, variant_ids
    from perfbench.corpus import _unique_rows
    from engine.pdfcore.extract import extract_turn

    docs = [build_variant(v) for v in variant_ids()]
    docs += [r[2] for r in _unique_rows(random.Random('unique-7'), 50, 7)[0]]
    docs += [_text_path_doc(c) for c in _TEXT_PATH_CONTENTS]
    assert len(docs) == 25 + 50 + len(_TEXT_PATH_CONTENTS)
    gc.collect()
    gc.disable()
    try:
        for pdf in docs:
            extract_turn(pdf, shared_fonts)
            extract_turn(pdf, shared_fonts, collect_spans=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _render_state(content, shared):
    """Render one ``_text_path_doc`` page without spans up to its last
    operator (a final ET is dropped, so Tm survives) → (page buffer items,
    glyph count, last y, Tm's nine entries in hex, error)."""
    from engine.pdfcore.content import StateStack, content_ops
    from engine.pdfcore.document import PdfDocument
    from engine.pdfcore.extract import Renderer

    if content.endswith(b' ET'):
        content = content[:-3]
    doc = PdfDocument(_text_path_doc(content))
    page = doc.dfs_pages()[0]
    r = Renderer(doc, shared)
    r.push_resources(doc.page_resources(page))
    s = StateStack()
    err = None
    try:
        r._render_tokens(page, content_ops(doc.page_content_text(page)), s)
    except Exception as e:
        err = '%s: %s' % (type(e).__name__, e)
    Tm = s.T._Tm
    mat = None if Tm is None else [float.hex(getattr(Tm, k)) for k in 'ABCDEFGHI']
    return list(r.txt), r.n_spans, float.hex(r.y), mat, err


def test_string_path_equals_glyph_loop(monkeypatch):
    """The string path leaves the page buffer item for item, the glyph
    count, the last y and every bit of Tm (signed zeros too) as the glyph
    loop does.  With GlyphDict's text views left empty every string takes
    the loop; both runs must be equal, and the first must have drawn
    strings whole (``reduce`` summed their advances)."""
    from engine.pdfcore import extract, fonts
    from engine.pdfcore.extract import SharedFontState

    plain = []
    real_reduce = extract.reduce

    def counting_reduce(*args):
        plain.append(real_reduce(*args))
        return plain[-1]

    monkeypatch.setattr(extract, 'reduce', counting_reduce)
    shared = SharedFontState()
    fast = [_render_state(c, shared) for c in _TEXT_PATH_CONTENTS]
    assert len(plain) > 10
    monkeypatch.setattr(fonts.GlyphDict, 'add', dict.__setitem__)
    del plain[:]
    shared = SharedFontState()      # glyph dicts with empty views
    loop = [_render_state(c, shared) for c in _TEXT_PATH_CONTENTS]
    assert plain == []
    for content, a, b in zip(_TEXT_PATH_CONTENTS, fast, loop):
        assert a == b, content


def test_font_memo_follows_the_resource_stack(monkeypatch):
    """``Renderer.get_font`` keeps the fonts it found until the resource
    stack is pushed or popped.  /F1 is Helvetica (' draws as U+2019) on
    page 1 and Helvetica with /WinAnsiEncoding (' draws as ') on page 2,
    and a form XObject on page 1 has its own /F1; a page that fails
    leaves its resources on the stack; a page with no /Font finds /F1
    only while its XObject's frame is pushed, and looks up a font that
    an ExtGState names by a list (unhashable, so never kept).  Every
    result equals the one of a renderer that walks the stack on every
    lookup."""
    from gen_pdf import _Builder
    from engine.pdfcore.extract import Renderer, SharedFontState, extract_turn

    def build(pages, objects):
        """pages: (resources, content) per page; objects: num → body,
        or (dictionary part, data) for a stream."""
        b = _Builder()
        kids = range(3, 3 + len(pages))
        b.add(1, b"<< /Type /Catalog /Pages 2 0 R >>")
        b.add(2, b"<< /Type /Pages /Kids [%s] /Count %d >>"
              % (b" ".join(b"%d 0 R" % k for k in kids), len(pages)))
        for k, (resources, content) in zip(kids, pages):
            b.add(k, b"<< /Type /Page /Parent 2 0 R /Resources %s /Contents %d 0 R >>"
                  % (resources, k + 20))
            b.add_stream(k + 20, b"", content)
        for num, body in objects.items():
            if isinstance(body, tuple):
                b.add_stream(num, *body)
            else:
                b.add(num, body)
        return b.build()

    helvetica = b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>"
    winansi = helvetica[:-3] + b" /Encoding /WinAnsiEncoding >>"
    form = (b"/Type /XObject /Subtype /Form /Resources 13 0 R",
            b"BT /F1 12 Tf 72 680 Td (D') Tj ET")
    page1 = b"BT /F1 12 Tf 72 720 Td (A') Tj ET /X1 Do BT /F1 12 Tf 72 700 Td (B') Tj "
    pages = [(b"<< /Font << /F1 10 0 R >> /XObject << /X1 12 0 R >> >>", page1 + b"(b') Tj ET"),
             (b"<< /Font << /F1 11 0 R >> >>", b"BT /F1 12 Tf 72 720 Td (C') Tj ET")]
    fonts = {10: helvetica, 11: winansi, 12: form, 13: b"<< /Font << /F1 11 0 R >> >>"}
    failing = [(pages[0][0], page1 + b"/F9 12 Tf (b') Tj ET"), pages[1]]
    xobject_only = [(b"<< /XObject << /X1 12 0 R >> >>",
                     b"/X1 Do BT /F1 12 Tf 72 700 Td (B) Tj ET")]
    list_name = [(b"<< /ExtGState << /G1 7 0 R >> >>", b"BT /G1 gs 72 700 Td (B) Tj ET")]
    pdfs = [build(pages, fonts), build(failing, fonts), build(xobject_only, fonts),
            build(list_name, {7: b"<< /Font [[1] 12] >>"})]

    shared = SharedFontState()
    memo = [extract_turn(pdf, shared) for pdf in pdfs]
    assert memo[0]['pages'] == ['\nA\u2019\nD\u2019\nB\u2019b\u2019', "\nC'"]
    assert memo[1]['pages'] == ['\nA\u2019\nD\u2019\nB\u2019\nC\u2019']
    assert memo[2]['pages'] == [] and memo[2]['error'] == "PdfError: Unable to find font 'F1'"
    assert memo[3]['error'] == "PdfError: Unable to find font '[1]'"
    monkeypatch.setattr(Renderer, 'get_font', Renderer._find_font)
    assert [extract_turn(pdf, shared) for pdf in pdfs] == memo


# ------------------------------ R4-R6/P10 object loading: one scan per object

def _xref_lines(text):
    """Split an xref table as ``PdfDocument._parse_xref_table`` does: CR,
    LF or CRLF line ends, each line rstripped, up to ``trailer``."""
    from engine.pdfcore.document import _read_line
    lines, pos = [], 0
    while pos < len(text):
        line, pos = _read_line(text, pos)
        if line.startswith('trailer'):
            break
        lines.append(line.rstrip())
    return lines


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:
        return '%s: %s' % (type(e).__name__, e)


def test_xref_table_fast_path_equals_general_path(monkeypatch):
    """A well-formed one-subsection table is read straight from its lines;
    every other shape goes through the lexer, which reads only the first
    subsection.  Both give the same rows or the same error."""
    from engine.pdfcore import document
    from engine.pdfcore.cos import parse_xref_table_tokens

    def general(lines):
        return parse_xref_table_tokens(scan_cos("\r\n".join(lines)))

    rows = ['0000000000 65535 f ', '0000000009 00000 n ', '0000000058 00000 n ']
    well_formed = 'xref\n0 3\n' + '\n'.join(rows) + '\ntrailer\n'
    tables = {
        'well formed': well_formed,
        'two subsections': well_formed.replace(
            '\ntrailer', '\n7 2\n0000000100 00000 n \n0000000200 00001 n \ntrailer'),
        'CR only': well_formed.replace('\n', '\r'),
        'CRLF': well_formed.replace('\n', '\r\n'),
        'trailing spaces': well_formed.replace(' n \n', ' n   \n'),
        'short row': well_formed.replace('0000000009 00000 n', '0000000009 0000 n'),
        'flag x': well_formed.replace('00000 n \n0000000058', '00000 x \n0000000058'),
        'count above rows': well_formed.replace('0 3\n', '0 5\n'),
        'count below rows': well_formed.replace('0 3\n', '0 2\n'),
        'first object 4': well_formed.replace('0 3\n', '4 3\n'),
    }
    scans = []
    monkeypatch.setattr(document, 'scan_cos',
                        lambda *a, **k: scans.append(a) or scan_cos(*a, **k))
    for name, text in tables.items():
        lines = _xref_lines(text)
        del scans[:]
        got = _outcome(document._xref_table_rows, lines)
        assert got == _outcome(general, lines), name
        fast = name in ('well formed', 'CR only', 'CRLF', 'trailing spaces',
                        'first object 4')
        assert (scans == []) == fast, name
    assert _outcome(document._xref_table_rows, _xref_lines(well_formed)) == [
        (0, 0, 65535, 'f'), (1, 9, 0, 'n'), (2, 58, 0, 'n')]


def _two_phase_scan(doc, offset):
    """The reference's object scan (parser/__init__.py:365-414): lex to
    ``stream``, read /Length from the tokens so far, lex again."""
    from engine.pdfcore.cos import Ref, parse_object_body
    try:
        return scan_cos(doc.data, offset, 'endobj')
    except NeedStreamLengthError as e:
        length = parse_object_body(list(e.tokens))[2][0]['Length']
        if isinstance(length, Ref):
            length = doc.get_object_values(length)[0]
        return scan_cos(doc.data, offset, 'endobj', length)


def test_stream_object_lexes_its_dictionary_once(monkeypatch):
    """A stream object's scan reads /Length from the dictionary it has
    lexed and goes on: one ``scan_cos`` call per object, plus one for an
    indirect /Length (the V05 shape).  The tokens, or the error of a
    truncated stream, equal the reference's two-scan protocol's."""
    from gen_pdf import build_variant
    from engine.pdfcore import document

    calls = []

    def counting(data, pos=None, *args, **kwargs):
        calls.append(pos)
        return scan_cos(data, pos, *args, **kwargs)

    for vid, want_calls in (('V01', 1), ('V05', 2)):
        data = build_variant(vid).decode('latin-1')
        off = document.PdfDocument(data).objmap[(4, 0)]
        cut = data.index('endstream', off) - 3
        for payload in (data, data[:cut]):
            doc = document.PdfDocument(data)
            doc.data = payload
            want = _outcome(_two_phase_scan, doc, off)
            doc = document.PdfDocument(data)
            doc.data = payload
            monkeypatch.setattr(document, 'scan_cos', counting)
            del calls[:]
            assert _outcome(doc._scan_object_at, off) == want, vid
            monkeypatch.undo()
            if payload is data:
                assert len(calls) == want_calls and calls[0] == off, vid
                assert want[-1][0] == 'endobj'
            else:
                assert isinstance(want, str), want     # the error


def test_object_load_parses_each_dictionary_once(monkeypatch):
    """Each object load parses its tokens once.  On the token path a
    stream object's dictionary, parsed to read /Length, is not parsed
    again: one ``parse_object_body`` call per load, where there were two
    per stream object.  On the fast path ``parse_object_at`` makes no
    ``parse_object_body`` call at all, so the calls count the loads it
    refused.  Both paths give the same values."""
    from gen_pdf import build_variant, variant_ids
    from engine.pdfcore import document

    calls = {'load': 0, 'body': 0, 'fast': 0, 'fast_ok': 0}
    real_body = document.parse_object_body
    real_fast = document.parse_object_at
    real_load = document.PdfDocument._object_at

    def body(toks):
        calls['body'] += 1
        return real_body(toks)

    def fast(*args):
        calls['fast'] += 1
        vals = real_fast(*args)
        calls['fast_ok'] += vals is not None
        return vals

    def load(self, offset, fast=True):
        calls['load'] += 1
        return real_load(self, offset, fast)

    def values(data):
        try:
            doc = document.PdfDocument(data)
        except Exception as e:
            return repr(e)
        out = []
        for k in sorted(doc.objmap):
            try:
                out.append(repr(doc.get_object_values(k)))
            except Exception as e:
                out.append(repr(e))
        return out

    docs = [build_variant(v).decode('latin-1') for v in variant_ids()]
    monkeypatch.setattr(document, 'parse_object_body', body)
    monkeypatch.setattr(document.PdfDocument, '_object_at', load)
    monkeypatch.setattr(document, 'parse_object_at', lambda *a: None)
    token_path = [values(d) for d in docs]
    assert calls['body'] == calls['load'] == 143, calls

    monkeypatch.setattr(document, 'parse_object_at', fast)
    calls.update(load=0, body=0)
    assert [values(d) for d in docs] == token_path
    assert calls['fast'] == calls['load'] == 143, calls
    assert calls['body'] == calls['load'] - calls['fast_ok'] == 4, calls


def test_split_fold_equals_the_token_parse():
    """``split_tokens`` + ``fold_tokens`` on random strings of COS words,
    numbers, brackets and noise: wherever they vouch for the values they
    equal ``parse_values(scan_cos(...))``, and on well-formed objects they
    vouch.  ``parse_trailer_text`` likewise equals the token parse."""
    import random
    from engine.pdfcore.cos import (fold_tokens, parse_trailer_text,
                                    parse_trailer_tokens, parse_values,
                                    split_tokens)

    words = ['/Type', '/Font', '/A/B', '/\xe9', '<<', '>>', '[', ']', '[1', '2]',
             '0', '12', '-3', '+4', '007', '1.5', '-.5', '5.', '2 0 R', '1 2 3 R',
             'true', 'false', 'null', '12345678901234567890']
    noise = ['/', '<<<', '>', '<41>', '/A<B>', '/A>', '.', '-', '1.2.3', 'R', '1 R',
             'nullx', 'obj', 'endobj', 'f', 'n', '(s)', ')', '%c', '\x0c', '\xa0', '\x00',
             '#', '1e5']
    rng = random.Random('fold')
    vouched = 0
    for _ in range(3000):
        text = ''.join(rng.choice(noise if rng.random() < 0.1 else words)
                       + rng.choice(['', ' ', '\n', '\r\n', '\t'])
                       for _ in range(rng.randint(1, 12)))
        toks = split_tokens(text, 0, len(text))
        got = None if toks is None else fold_tokens(toks)
        if got is None:
            continue
        vouched += 1
        assert repr(got) == repr(parse_values(scan_cos(text))), text
    assert vouched > 500
    for text in ['<< /Type /Page /Kids [3 0 R 4 0 R] /N -2 /F 1.5 /B true >>',
                 '<< /A << /B [1 [2] null] >> /C 7 0 R >>', '[/A/B[0 0 612 792]]']:
        assert repr(fold_tokens(split_tokens(text, 0, len(text)))) == \
            repr(parse_values(scan_cos(text)))
    for trailer in ['trailer\r\n<< /Size 7 /Root 1 0 R >>\r\nstartxref\r\n628\r\n%%EOF',
                    'trailer << /Size 7 /Prev 99 /Root 1 0 R >> startxref 628 %%EOF',
                    'trailer\r\n<</Size 7>>\r\nstartxref\r\n628%%EOF']:
        assert parse_trailer_text(trailer) == parse_trailer_tokens(scan_cos(trailer))
    for odd in ['trailer << /ID [<41>] >> startxref 628 %%EOF',
                'trailer << /A (x) >> startxref 628 %%EOF',
                'trailer << >> startxref 628 % c\r\n%%EOF',
                'trailer [1] startxref 628 %%EOF', 'trailer << >> startxref %%EOF']:
        assert parse_trailer_text(odd) is None, odd


def test_object_at_fast_path_equals_token_path():
    """``PdfDocument._object_at`` on hand-made objects: the one-pass parse
    gives the token path's values or error, and vouches exactly for the
    shapes it takes (a direct or indirect /Length, CR/LF around the
    payload, an ``endstream`` or not); it refuses the rest."""
    from engine.pdfcore import cos, document

    objects = {
        b'<< /Length 5 >>\nstream\nabcde\nendstream\nendobj': True,
        b'<< /Length 5 >>stream\r\nabcde\r\nendstream endobj': True,
        b'<< /Length 5 >>\nstream\nabcdeendstreamendobj': True,
        b'<< /Length 5 >>\nstream\nabcde\nendobj': True,
        b'<< /Length 9 0 R /Filter /FlateDecode >>\nstream\nabcde\nendstream\nendobj': True,
        b'<< /Type /Page /Kids [3 0 R 4 0 R] /Box [0 0 612 792] /D << /X null >> >>\nendobj': True,
        b'\nendobj': True,
        b'1 2 3 R true false -4 +5 .5 endobj': True,
        b'<< /Length 5 >>\nstream\nabcde\nendstream /X endobj': False,
        b'<< /Length 5 >>\nstream\nabcde\nendstream x endobj': False,
        b'<< /Length 500 >>\nstream\nabcde\nendstream\nendobj': False,
        b'<< /Length 2 >>\nstream\nabcde\nendstream\nendobj': False,
        b'<< /Length -1 >>\nstream\nabcde\nendstream\nendobj': False,
        b'<< /Length true >>\nstream\nabcde\nendstream\nendobj': False,
        b'<< /Size 5 >>\nstream\nabcde\nendstream\nendobj': False,
        b'5 << /Length 5 >>\nstream\nabcde\nendstream\nendobj': False,
        b'<< /streamX 1 >> endobj': False,
        b'<< /A (x) >> endobj': False,
        b'<< /A <41> >> endobj': False,
        b'<< /A 1 R >> endobj': False,
        b'<< /A [1 >> endobj': False,
        b'<< [1] 2 >> endobj': False,
        b'% c\n<< >> endobj': False,
    }
    for body, vouched in objects.items():
        for head in (b'7 0 obj ', b'+7 0 obj ', b'7 0 '):
            data = (head + body + b'\n9 0 obj 5 endobj\n').decode('latin-1')
            doc = document.PdfDocument.__new__(document.PdfDocument)
            doc.data = data
            doc.cache = {}
            doc.objmap = {(9, 0): data.index('9 0 obj')}
            fast = _outcome(doc._object_at, 0)
            took = isinstance(_outcome(cos.parse_object_at, data, 0, doc._stream_length),
                              list)
            doc.cache = {}
            assert repr(fast) == repr(_outcome(doc._object_at, 0, False)), data
            assert took == (vouched and head == b'7 0 obj '), data


def test_content_ops_equal_tokenize_content():
    """``content_ops`` on random content programs of operators, numbers,
    names, literals, arrays and noise: equal to ``tokenize_content`` but
    for token positions, or the same error, and the fast path vouches for
    most well-formed ones.  Every content keyword lexes as one token, as
    the fast path assumes."""
    import random
    from engine.pdfcore import content
    from engine.pdfcore.lexers import _TEXT_KW

    def outcome(fn, text):
        try:
            ops = fn(text)
        except Exception as e:
            return '%s: %s' % (type(e).__name__, e)
        if isinstance(ops, dict):
            ops = ops['tokens']
        return [(op, a if isinstance(a, str) else
                 [t[:2] if isinstance(t, tuple) else t for t in a]) for op, a in ops]

    for kw, typ in _TEXT_KW.items():
        assert scan_content(kw) == [(typ, kw, 0)], kw
    words = ['BT', 'ET', '/F1 12 Tf', '1 2 Td', '(ab c) Tj', '[(a) -300 (b)] TJ',
             '[(a)] TJ', '[] TJ', '0 -16 Td', "(x) '", '1 2 (x) "', 'T*',
             '1 0 0 1 5 5 Tm', '0 1 -1 0 0 0 cm', 'q', 'Q', '2 Tc', '-.5 Tw',
             '50 Tz', '2 Tr', '1 g', '/P /M BDC', 'EMC', '/X1 Do']
    noise = ['0.5 sc', '[1 2] 0 d', '(a(b)c) Tj', '(a\\)b) Tj', '<41> Tj', '%c',
             ')', '(', '[', ']', '/', '7', '-', '1.2.3', 'TjT*', '\x0c', '\xa0',
             'Tj', 'TJ']
    rng = random.Random('content-ops')
    vouched = 0
    for _ in range(3000):
        text = ' '.join(rng.choice(noise if rng.random() < 0.1 else words)
                        for _ in range(rng.randint(1, 10)))
        want = outcome(content.tokenize_content, text)
        assert outcome(content.content_ops, text) == want, text
        vouched += content._content_ops_fast(text) is not None
    assert vouched > 500


def test_unique_docs_never_reach_the_lexers(monkeypatch, shared_fonts):
    """The one-pass parsers take every object and content stream of the
    ``unique_docs`` benchmark documents: over the first 100 of the 800
    seed-7 ones, with and without spans, neither ``scan_cos`` nor
    ``scan_content`` runs.  If they stop doing so, the token path is hot
    on that workload again."""
    import random
    from engine.pdfcore import content, document
    from engine.pdfcore.extract import extract_turn
    from perfbench.corpus import _unique_rows

    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(document, 'scan_cos',
                        spy('scan_cos', document.scan_cos))
    monkeypatch.setattr(content, 'scan_content',
                        spy('scan_content', content.scan_content))
    rows, _ = _unique_rows(random.Random('unique-7'), 800, 7)
    for row in rows[:100]:
        for spans in (False, True):
            r = extract_turn(row[2], shared_fonts, collect_spans=spans)
            assert r['decode_ok'], r['error']
    assert calls == []


def test_xref_section_fast_path_equals_line_loop(monkeypatch):
    """``_xref_table_fast`` reads an xref section and its trailer with
    ``find`` and ``split``; ``_parse_xref_table``'s line loop reads them
    line by line.  For LF, CR and CRLF line ends, trailing spaces, a
    /Prev trailer and odd shapes both give the same rows, trailer and
    next offset, or the same error; the fast path takes the plain ones.
    ``_find_startxref``'s one-step match equals its reverse line scan."""
    from engine.pdfcore import document

    rows = ['0000000000 65535 f ', '0000000009 00000 n ', '0000000058 00000 n ']
    base = ('%PDF-1.4\nxref\n0 3\n' + '\n'.join(rows) +
            '\ntrailer\n<< /Size 3 /Root 1 0 R >>\nstartxref\n9\n%%EOF\n')
    sections = {
        'LF': base,
        'CR': base.replace('\n', '\r'),
        'CRLF': base.replace('\n', '\r\n'),
        'trailing spaces': base.replace(' n \n', ' n   \n').replace('R >>\n', 'R >>  \n'),
        'prev': base.replace('/Root 1 0 R', '/Root 1 0 R /Prev 500'),
        'one-line trailer': base.replace('>>\nstartxref\n9\n', '>> startxref 9\n'),
        'EOF not a line': base.replace('>>\nstartxref\n9\n', '>> startxref 9 '),
        'EOF then junk': base.replace('%%EOF\n', '%%EOF junk\n%%EOF\n'),
        'EOF mid-line': base.replace('%%EOF', 'x %%EOF'),
        'EOF after offset': base.replace('9\n%%EOF', '9 %%EOF'),
        'trailer mid-line': base.replace('\ntrailer', ' trailer'),
        'no EOF': base.replace('%%EOF', ''),
        'hex ID': base.replace('/Root 1 0 R', '/Root 1 0 R /ID [<41> <42>]'),
        'comment': base.replace('startxref', '% note\nstartxref'),
        'two subsections': base.replace('\ntrailer', '\n7 1\n0000000100 00000 n \ntrailer'),
        'count 0': '%PDF-1.4\nxref\n0 0\ntrailer\n<< /Size 0 >>\nstartxref\n9\n%%EOF\n',
    }
    fast_ones = ('LF', 'CR', 'CRLF', 'trailing spaces', 'prev', 'one-line trailer',
                 'two subsections', 'count 0')

    def parse(data):
        doc = document.PdfDocument.__new__(document.PdfDocument)
        doc.data = data
        try:
            combo, nxt = doc._parse_xref_table(9)
        except Exception as e:
            return '%s: %s' % (type(e).__name__, e)
        return combo.rows, combo.dict, nxt

    real_fast = document._xref_table_fast
    for name, data in sections.items():
        got = parse(data)
        took = real_fast(data, 9) is not None
        monkeypatch.setattr(document, '_xref_table_fast', lambda *a: None)
        assert got == parse(data), name
        monkeypatch.undo()
        assert took == (name in fast_ones), name

    tails = ['startxref\n628\n%%EOF\n', 'startxref\r\n628\r\n%%EOF', 'startxref  \r628 %%EOF \n',
             'startxref 628\n%%EOF\n', 'startxref\n628\n%%EOF junk\n', 'startxref\n+628\n%%EOF\n',
             'startxref\n628\n', 'xstartxref\n628\n%%EOF\n', 'startxref\n\x0c628\n%%EOF\n']
    for tail in tails:
        for data in (tail, '%PDF-1.4\n' + tail, 'startxref\n1\n%%EOF\n' + tail):
            doc = document.PdfDocument.__new__(document.PdfDocument)
            doc.data = data
            got = _outcome(doc._find_startxref)
            monkeypatch.setattr(document, '_STARTXREF', re.compile('(?!)'))
            assert got == _outcome(doc._find_startxref), data
            monkeypatch.undo()


def test_objstm_slices_equal_the_reference_filter():
    """``_ObjStmIndex`` takes each object's tokens by bisecting token
    positions; the reference filters the whole token list per object.
    For a 300-object stream, with well-formed and with odd offsets (in
    the middle of a number, or going backwards), the values are equal."""
    from engine.pdfcore.cos import StreamObj, parse_values
    from engine.pdfcore.document import _ObjStmIndex

    bodies = []
    for i in range(300):
        bodies.append(('<< /Type /Obj%d /Kids [%d 0 R %d 0 R] /N %d.5 /S (s%d) >>'
                       % (i, i + 1, i + 2, i, i), '[%d /A <0%X>]' % (i, i),
                       '%d' % i, '(lit %d) true null' % i)[i % 4])

    def stream(offsets):
        header = ' '.join('%d %d' % (1000 + i, o) for i, o in enumerate(offsets)) + ' '
        return header, len(header)

    def reference(data, first, offsets):
        toks = scan_cos(data)
        out = []
        for i, off in enumerate(offsets):
            start = off + first
            end = (offsets[i + 1] - 1 if i + 1 < len(offsets) else len(data) - 1) + first
            out.append(parse_values([t for t in toks if start <= t[2] <= end]))
        return out

    payload, good = '', []
    for b in bodies:
        good.append(len(payload))
        payload += b + ' '
    odd = [o + (i % 40 == 10) for i, o in enumerate(good)]   # mid-number
    odd[150], odd[151] = odd[151], odd[150]
    for offsets in (good, odd):
        header, first = stream(offsets)
        data = header + payload
        idx = _ObjStmIndex(StreamObj({'N': 300, 'First': first}, data))
        got = [idx.get_object_values(i) for i in range(300)]
        assert got == reference(data, first, offsets)


# ------------------------------------------ Arrow columns over plain buffers

@pytest.mark.parametrize('values, type_name', [
    ((), 'int32'), ((0, -2**31, 2**31 - 1), 'int32'),
    ([7, -2**63, 2**63 - 1], 'int64'), (range(5), 'int64'),
    ((), 'float64'), ((1.5, -0.0, float('inf'), 3), 'float64')])
def test_num_array_equals_pa_array(values, type_name):
    import numpy as np
    import pyarrow as pa
    from engine.rayjob.extract_stage import num_array
    type = getattr(pa, type_name)()
    want = pa.array(list(values), type)
    for given in (list(values), np.asarray(list(values), type_name)):
        got = num_array(given, type)
        assert got.type == want.type and got.equals(want)


@pytest.mark.parametrize('n', [0, 1, 7, 8, 9, 17])
def test_bool_array_equals_pa_array(n):
    import pyarrow as pa
    from engine.rayjob.extract_stage import bool_array
    values = [i % 3 != 1 for i in range(n)]
    got, want = bool_array(values), pa.array(values, pa.bool_())
    assert got.type == want.type and got.equals(want)
    assert got.to_pylist() == values


def test_str_array_equals_pa_array():
    import pyarrow as pa
    from engine.rayjob.extract_stage import str_array
    for values in ([], [None], [''], ['é€𝄞'], [None, '', 'é€𝄞', 'ascii', None]):
        got, want = str_array(values), pa.array(values, pa.string())
        got.validate(full=True)
        assert got.type == want.type and got.equals(want)
        assert got.null_count == want.null_count


def test_builders_raise_instead_of_wrapping(monkeypatch):
    import pyarrow as pa
    from engine.rayjob import extract_stage
    for values, type in (([2**31], pa.int32()), ([-2**31 - 1], pa.int32()),
                         ([2**63], pa.int64())):
        with pytest.raises(OverflowError):
            extract_stage.num_array(values, type)
    with pytest.raises(UnicodeEncodeError):
        extract_stage.str_array(['\ud800'])     # a lone surrogate
    monkeypatch.setattr(extract_stage, 'MAX_STR_BYTES', 9)
    assert extract_stage.str_array(['1234', 'é€']).to_pylist() == ['1234', 'é€']
    with pytest.raises(OverflowError):
        extract_stage.str_array(['1234', 'é€', 'x'])


def test_np_view_reads_slices_and_chunks():
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    from engine.rayjob.extract_stage import np_view
    arr = pa.array(range(10), pa.int32())
    part = arr.slice(3, 5)
    assert np_view(part, np.int32).tolist() == part.to_pylist()
    two = pa.chunked_array([arr.slice(0, 4), arr.slice(6)])
    assert two.num_chunks == 2
    assert np_view(two, np.int32).tolist() == two.to_pylist()
    assert np_view(pa.chunked_array([], pa.int32()), np.int32).tolist() == []
    ok = pa.array([True, False, True])
    assert np_view(pc.cast(pc.invert(ok), pa.int8()), np.int8).tolist() == [0, 1, 0]
    with pytest.raises(ValueError):
        np_view(pa.array([1, None, 3], pa.int32()), np.int32)
    with pytest.raises(TypeError):
        np_view(arr, np.int64)
