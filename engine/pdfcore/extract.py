"""Per-turn extraction: page rendering driver and full-text assembly.

Re-derivation of the reference's RenderPages/RenderPage/_RenderPage_Tokens
dispatch loop and the GetFullText text assembler (pypdfproc/__init__.py:
273-620; SURVEY.md I1-I3, T1-T2, U1) plus the literal/hex splitters
(__init__.py:648-740; I10).  The reference's renderer reports string
actions ('glyph draw', 'space draw', ...) that GetFullText turns into
text; here the renderer does each action's work in place, in one pass.

The assembler defines BYTE-EXACT per-turn text equality with the reference:

* a newline is emitted whenever a drawn glyph's y differs from the previous
  glyph's y — including before the first glyph of the document (y starts at
  −1.0), and the remembered y carries ACROSS pages;
* an implied space is emitted for a TJ numeric kern when |w| exceeds 50% of
  the current font's average nonzero width;
* the implied-space rule reads the width stats of the font set by the
  last Tf, not of a font switched in by Q or gs;
* page text is joined at the page's end; a page that raises mid-render
  leaves its partial chars in the buffer, which then leak into the NEXT
  page's string (cloned reference behavior — the buffer is only cleared
  at a page's end), and its resources stay on the resource stack.

``extract_turn`` is the engine's per-row kernel: it never raises; failures
are reported in the result dict (decode_ok=False + error).
"""

import os
from functools import reduce
from itertools import repeat
from math import copysign
from operator import add, mul

from .cos import BudgetExceeded, PdfError, Ref
from .document import PdfDocument, ResourceView
from .content import Mat, StateStack, content_ops
from .fonts import FontCache, get_font_widths
from . import afm as _afm
from . import encodings as _enc

__all__ = ['SharedFontState', 'Renderer', 'extract_turn',
           'split_literal', 'split_hex']

# NB: the reference defines an RI_MAP (state.py:36-40, misspelling
# 'Perceptual' as 'Perception') behind a validated property that its own
# 'ri' dispatch never reaches (stray-attribute bug) — so no equivalent
# table exists here; see the 'ri' branch below.


class SharedFontState(object):
    """Corpus-invariant state, loaded ONCE per worker process: the 14
    standard-font AFM metrics, the encoding maps, and the glyph-name map
    (SURVEY.md S3/F10/F11), plus three caches of pure functions of them.

    In the Ray pipeline one instance is built per worker process, on first
    use (``engine.rayjob.extract_stage.font_state``), and shared by every
    batch and job that process runs.  It depends on no corpus; every cache
    is keyed only by standard-font inputs:

    * ``afm_widths_synth``: BaseFont → (widths, FirstChar, LastChar) of a
      font whose /Widths are synthesized from its AFM (``get_font_widths``);
    * ``afm_width_stats``: BaseFont → the width-stats dict of such a font
      (``Renderer._set_width_stats``);
    * ``type1_glyphs``: (BaseFont, Encoding) → GlyphDict of a Type1
      standard font with no /Encoding or a named one; each document's
      ``FontCache`` uses it as that font's glyph dict.
    """

    def __init__(self, afm_zip_path=None):
        if afm_zip_path is None:
            afm_zip_path = os.path.join(_enc.DATA_DIR, 'StandardFonts_AFM.zip')
        self.std_fonts = _afm.load_afm_zip(afm_zip_path)
        # Force-load the JSON tables now (not lazily per batch)
        _enc.encoding_map('Std')
        # Cross-turn caches (SURVEY.md §3.5 actor-state LRU): transcripts
        # repeat the standard fonts heavily.
        self.afm_widths_synth = {}
        self.afm_width_stats = {}
        self.type1_glyphs = {}

    def std_font(self, name):
        if name not in self.std_fonts:
            raise KeyError("Font '%s' has not been loaded yet" % name)
        return self.std_fonts[name]


# ---------------------------------------------------------------------------
# String splitters (reference __init__.py:648-740; I10)

def split_literal(lit):
    """Split a literal string into chars, handling escapes byte-exactly.

    Cloned quirks: the escaped-paren branch references an undefined name in
    the reference (``lis`` typo, __init__.py:697) — reachable via ``\\\\(``
    sequences — and raises accordingly; octal escapes take 1-3 digits; an
    escape at end-of-string raises IndexError."""
    if '\\' not in lit:
        return list(lit)
    ret = []
    imax = len(lit)
    i = 0
    while i < imax:
        c = lit[i]
        if c == '\\':
            nxt = lit[i + 1]
            if nxt == '\\':
                ret.append(c)
                i += 2
            elif nxt in ('\n', '\r', '\t', '\b', '\f'):
                ret.append(nxt)
                i += 2
            elif nxt == 'n':
                ret.append('\n')
                i += 2
            elif nxt == 'r':
                ret.append('\r')
                i += 2
            elif nxt == 't':
                ret.append('\t')
                i += 2
            elif nxt == 'b':
                ret.append('\b')
                i += 2
            elif nxt == 'f':
                ret.append('\f')
                i += 2
            elif nxt in ('(', ')'):
                # reference: ``ret.append(lis[i+1])`` — NameError
                raise PdfError("name 'lis' is not defined (cloned reference typo)")
            elif nxt.isdigit() and lit[i + 2].isdigit() and lit[i + 3].isdigit():
                ret.append(chr(int(lit[i + 1:i + 4], 8)))
                i += 4
            elif nxt.isdigit() and lit[i + 2].isdigit():
                ret.append(chr(int('0' + lit[i + 1:i + 3], 8)))
                i += 3
            elif nxt.isdigit():
                ret.append(chr(int('00' + nxt, 8)))
                i += 2
            else:
                raise PdfError("Unable to handle literal at index %d" % i)
        else:
            ret.append(c)
            i += 1
    return ret


def split_hex(txt, bytesize):
    """Split a hex string into chars of ``bytesize`` bytes (reference
    SplitHex): odd length grows a trailing '0'; length must then divide
    evenly."""
    if bytesize is None:
        raise PdfError("Byte size not provided, cannot split hex string")
    if len(txt) % 2 == 1:
        txt += '0'
    if len(txt) % (bytesize * 2) != 0:
        raise PdfError("Cannot split hex string (len=%d) into %d-byte chars"
                       % (len(txt), bytesize))
    step = bytesize * 2
    return [chr(int(txt[i:i + step], 16)) for i in range(0, len(txt), step)]


# Operators one document may render, counted per content stream rendered
# (a page's, or a form XObject's each time it is drawn): a fan-out of
# XObjects that draw each other twice is bounded by this, not by 2**depth.
MAX_RENDERED_OPS = 30000
# Bytes of content stream one document may lex, charged before each
# content stream is rendered (again at each Do of a form XObject).
MAX_CONTENT_BYTES = 16 << 20
# Glyphs one document may draw, charged once per string shown.
MAX_GLYPHS = 1 << 20


# ---------------------------------------------------------------------------
# Renderer (reference PDF.RenderPages / RenderPage / _RenderPage_Tokens,
# fused with GetFullText's text assembly)

class Renderer(object):
    """Renders every page of one document and assembles its text as it
    draws: the reference's 'glyph draw', 'space draw', 'change font' and
    'page end' actions happen in place in the dispatch loop."""

    def __init__(self, doc, shared, collect_spans=False):
        self.doc = doc
        self.shared = shared
        self.fonts = FontCache(doc, shared)
        self.resources = []     # resource stack (page, then XObjects)
        self.pages = []         # text of each completed page
        self.txt = []           # current page buffer (only cleared at page end)
        self.y = -1.0           # y of the last drawn glyph, across pages
        self.n_spans = 0
        self.page_errors = []
        self.spans = [] if collect_spans else None
        self.widths = None      # width stats of the font set by the last Tf
        self.stats_by_font = {}  # font oid key -> width stats
        self.page_fonts = {}    # font name -> font, while the stack is unchanged
        self.ops_left = MAX_RENDERED_OPS
        self.bytes_left = MAX_CONTENT_BYTES
        self.glyphs_left = MAX_GLYPHS
        self._ops = {}          # content string -> its operators

    # -- resource-stack font lookup (reference PDF.GetFont, :128-158) ----

    def push_resources(self, recs):
        self.resources.append(recs)
        self.page_fonts.clear()

    def pop_resources(self):
        self.resources.pop()
        self.page_fonts.clear()

    def get_font(self, fontname):
        """The font ``fontname`` names on the resource stack.  A found font
        is kept in ``page_fonts`` until the stack is pushed or popped; a
        lookup that fails is not kept, so it raises on every call."""
        memo = type(fontname) is str
        if memo:
            f = self.page_fonts.get(fontname)
            if f is not None:
                return f
        f = self._find_font(fontname)
        if memo:
            self.page_fonts[fontname] = f
        return f

    def _find_font(self, fontname):
        for recs in self.resources:
            if not isinstance(recs, ResourceView):
                # reference: attribute error on raw Dictionary / None
                raise PdfError("resource stack entry has no Font attribute")
            fdict = recs.Font
            if fdict is None:
                continue
            if fontname not in fdict:
                raise PdfError("Unrecognize font name (%s)" % (fontname,))
            f = fdict[fontname]
            if isinstance(f, Ref):
                f = self.doc.get_font(f)
            return f
        raise PdfError("Unable to find font '%s'" % (fontname,))

    def get_graphics_state(self, page, gsname):
        recs = self.doc.page_resources(page)
        eg = recs.ExtGState
        if eg is None or gsname not in eg:
            raise PdfError("Unrecognize external graphics state name (%s)" % gsname)
        g = eg[gsname]
        if isinstance(g, Ref):
            g = self.doc.get_graphics_state(g)
        return g

    # -- page drivers -----------------------------------------------------

    def render_pages(self):
        for page in self.doc.dfs_pages():
            try:
                self.render_page(page)
            except BudgetExceeded:
                raise             # the whole document fails, not the page
            except Exception as e:
                # the page's partial text stays in self.txt and leaks into
                # the next page; its resources stay on the stack (cloned)
                self.page_errors.append("%s: %s" % (type(e).__name__, e))

    def render_page(self, page):
        ct = self.doc.page_content_text(page)
        self.push_resources(self.doc.page_resources(page))
        s = StateStack()
        toks = self._charge(ct)
        self._render_tokens(page, toks, s)
        self.pages.append("".join(self.txt))
        self.txt.clear()
        self.pop_resources()

    def _render_tokens(self, page, toks, s):
        """The dispatch loop (reference __init__.py:344-543; I2).  Text
        operators come first: they are most of every content stream.  The
        others dispatch through ``_OPS``."""
        show = self._show_text
        ops_table = _OPS
        for tt, ops in toks:
            if tt == 'Tj' or tt == 'TJ':
                show(s, ops)
            elif tt == 'Td':
                s.T.do_Td(ops[0][1], ops[1][1])
            elif tt == 'Tf':
                T = s.T
                T.Tf = ops[0][1]
                T.set_Tfs(ops[1][1])
                self._set_width_stats(T.Tf)
            else:
                op = ops_table.get(tt)
                if op is None:
                    raise PdfError("Cannot render '%s' token yet" % tt)
                op(self, page, s, ops)

    def _do_xobject(self, page, s, name):
        recs = self.doc.page_resources(page)
        xdict = recs.XObject
        x = xdict[name]
        if isinstance(x, Ref):
            x = self.doc.get_xobject(x)
        self.push_resources(x.Resources)
        x_toks = self._charge(x.Stream)
        self._render_tokens(page, x_toks, s)
        self.pop_resources()

    def _charge(self, content):
        """The operators of ``content``, a content stream about to be
        rendered: its length is taken from the byte budget before it is
        lexed, and its operator count from the operator budget, on every
        draw.  A stream drawn again (a form XObject at each ``Do``) is
        lexed once per document."""
        self.bytes_left -= len(content)
        if self.bytes_left < 0:
            raise BudgetExceeded('more than %d content bytes rendered'
                                 % MAX_CONTENT_BYTES)
        toks = self._ops.get(content)
        if toks is None:
            toks = self._ops[content] = content_ops(content)
        self.ops_left -= len(toks)
        if self.ops_left < 0:
            raise BudgetExceeded('more than %d operators rendered'
                                 % MAX_RENDERED_OPS)
        return toks

    def _show_text(self, s, operands):
        """Tj/TJ: draw each string's glyphs straight into the page buffer
        (reference 'glyph draw' / 'space draw' actions, __init__.py:
        498-530, 590-611).

        The font and its glyph dict are resolved once per operator, on
        the first glyph drawn.  The first string that draws looks up its
        first glyph before Tm is read, so a missing font, glyph or BT
        fails with the reference's error.  From then on Tm's entries live
        in locals, glyphs and kerns advance E/F/I there, and one Mat is
        written back at the operator's end: nothing else the position and
        advance read changes within an operator.  Kerns before the first
        drawn string advance Tm through ``TextState.do_Tj``.

        Without spans, a string is drawn whole when ``flat`` holds and
        every code of the string has a one-character glyph in the font's
        GlyphDict (its ``advance`` lookup raises no KeyError).  ``flat``:
        Tm's B and G and cm's B are zero, the rise term of x (``pe``) is
        zero, neither F nor I is -0.0, Tc and Tw are zero, Tz is 100, Tm's
        A is 1, its C finite and Tfs > 0.  Then each glyph's advance is exactly Tfs ×
        its ``advance`` entry, which is never -0.0 (the other terms add a
        zero to a nonzero product, or to +0.0, or multiply by 1), so
        C-level ``map`` and ``reduce`` add the advances to E in the loop's
        order.  And no glyph moves F, I or y: F and I only gain zeros, and
        y's E term is a zero while E stays finite, which the string's
        final E shows, as a non-finite E never turns finite again.  So one
        finite y is checked and the text goes in one step, one buffer item
        per glyph as the loop appends.  Any other string takes the glyph
        loop."""
        T = s.T
        txt = self.txt
        spans = self.spans
        f = glyphs = Tm = space_at = None
        flat = False
        last_y = self.y
        drawn = 0
        try:
            for st, v, _ in operands:
                if st == 'LIT':
                    chars = v if '\\' not in v else split_literal(v)
                elif st == 'INT' or st == 'FLOAT':
                    if Tm is None:
                        T.do_Tj(v, None)
                    else:
                        # TextState.do_Tj's kern advance, then translate_mul
                        tx = ((0.0 - v) / 1000.0 * Tfs) * tz
                        E = tx * A + zC + E
                        F = tx * B + zD + F
                        I = tx * G + zH + I
                    if space_at is None:    # widths change only at a Tf
                        space_at = 0.5 * self.widths['avg']
                    if abs(v) > space_at:
                        txt.append(' ')
                    continue
                elif st == 'HEXSTRING':
                    if f is None:
                        f = self.get_font(T.Tf)
                    if type(f.Encoding) == str and f.Encoding.startswith('Identity'):
                        chars = split_hex(v, 2)
                    else:
                        raise NotImplementedError(
                            "Unknown encoding for HEXSTRING: '%s'" % f.Encoding)
                else:
                    raise PdfError("Unrecognized Tj token type: %s" % st)
                if not chars:
                    continue
                self.glyphs_left -= len(chars)
                if self.glyphs_left < 0:
                    raise BudgetExceeded('more than %d glyphs drawn'
                                         % MAX_GLYPHS)

                if Tm is None:
                    if glyphs is None:
                        if f is None:
                            f = self.get_font(T.Tf)
                        glyphs = self.fonts.glyphs_of(f)
                    cid = ord(chars[0])
                    if cid not in glyphs:
                        self.fonts.get_glyph(f, cid)
                    # Position before the advance, NB Tr-as-rise (reference
                    # __init__.py:521): (E, F) of Mat(Tfs*Tz,0,0,Tfs,0,Tr)*Tm*cm,
                    # with the reference multiply's per-term order (0.0*A +
                    # Tr*C + 1.0*E; the constant prefix is hoisted, 1.0*E is E).
                    Tm = T._Tm
                    A, B, C, D, G, H = Tm.A, Tm.B, Tm.C, Tm.D, Tm.G, Tm.H
                    E, F, I = Tm.E, Tm.F, Tm.I
                    cm = s.S.cm
                    cA, cB, cC, cD, cE, cF = cm.A, cm.B, cm.C, cm.D, cm.E, cm.F
                    trf = float(T.Tr)
                    pe = 0.0 * A + trf * C
                    pf = 0.0 * B + trf * D
                    pi = 0.0 * G + trf * H
                    # Advance (TextState.do_Tj, then Mat.translate_mul by (tx, 0.0))
                    Tfs, Tc, Tw, tz = T.Tfs, T.Tc, T.Tw, T.Tz / 100.0
                    zC, zD, zH = 0.0 * C, 0.0 * D, 0.0 * H
                    page_no = len(self.pages)
                    flat = (spans is None and B == 0 and G == 0 and cB == 0
                            and pe == 0 and zD == 0 and zH == 0
                            and (F != 0 or copysign(1.0, F) > 0)
                            and (I != 0 or copysign(1.0, I) > 0)
                            and Tc == 0 and Tw == 0 and tz == 1.0 and A == 1.0
                            and zC == 0 and type(Tfs) is float and Tfs > 0)
                    if flat:
                        text_of, advance = glyphs.text, glyphs.advance

                if flat:
                    text = chars if type(chars) is str else ''.join(chars)
                    try:        # a KeyError: a code without a glyph here
                        E1 = reduce(add, map(mul, map(advance.__getitem__, text),
                                             repeat(Tfs)), E)
                    except KeyError:
                        E1 = None
                    y = (pe + E) * cB + (pf + F) * cD + (pi + I) * cF
                    if E1 is not None and E1 - E1 == 0.0 and y - y == 0.0:
                        if y != last_y:
                            txt.append('\n')
                            last_y = y
                        txt.extend(text.translate(text_of))
                        drawn += len(text)
                        E = E1
                        continue

                for ch in chars:
                    cid = ord(ch)
                    g = glyphs.get(cid)
                    if g is None:
                        g = self.fonts.get_glyph(f, cid)
                    m1e = pe + E
                    m1f = pf + F
                    m1i = pi + I
                    y = m1e * cB + m1f * cD + m1i * cF
                    if y != last_y:
                        txt.append('\n')
                        last_y = y
                    u = g.unicode
                    txt.append(u)
                    drawn += 1
                    if spans is not None:
                        spans.append((page_no, m1e * cA + m1f * cC + m1i * cE,
                                      y, u, g.cid, g.width))
                    tx = ((g.width - 0.0) / 1000.0 * Tfs + Tc + Tw) * tz
                    E = tx * A + zC + E
                    F = tx * B + zD + F
                    I = tx * G + zH + I
        finally:
            self.y = last_y
            self.n_spans += drawn
        if Tm is not None:
            T._Tm = T._Tlm = Mat.of(A, B, C, D, E, F, G, H, I)

    def _set_width_stats(self, fontname):
        """Tf: the (avg, min, max) width stats of the new font, which the
        implied-space rule reads (reference 'change font' action,
        __init__.py:566-589).  Fonts switched by Q or gs keep the stats
        of the last Tf."""
        f = self.get_font(fontname)
        okey = f.oid.key()
        cached = self.stats_by_font.get(okey)
        if cached is not None:
            self.widths = cached
            return
        shared = self.shared
        # AFM-synthesized widths depend only on BaseFont → shared cache.
        # Purity requires the SAME condition as ``pure`` in get_font_widths:
        # a preset FirstChar/LastChar clips the synthesized window, so such
        # fonts must not populate / read the shared cache (cross-document
        # contamination of the avg width).
        synth = (f.Widths is None and f.Subtype in ('TrueType', 'Type1')
                 and f.FirstChar is None and f.LastChar is None)
        if synth:
            cached = shared.afm_width_stats.get(f.BaseFont)
            if cached is not None:
                get_font_widths(shared, f)   # still synthesize f.Widths
                self.stats_by_font[okey] = cached
                self.widths = cached
                return
        w = get_font_widths(shared, f)
        if type(w) == dict:
            w = [v[0] for v in list(w.values()) if v[0] != 0]
        elif type(w) == list:
            w = [v for v in w if v != 0]
        else:
            raise PdfError("Unrecognized widths object type: '%s'" % str(w))
        st = {'avg': sum(w) / float(len(w)), 'min': min(w), 'max': max(w)}
        self.stats_by_font[okey] = st
        if synth:
            shared.afm_width_stats[f.BaseFont] = st
        self.widths = st

    def _apply_gs(self, page, s, gsname):
        """ExtGState application in Table-4.8 order with the reference's
        NotImplementedError surface (reference __init__.py:373-413)."""
        gs = self.get_graphics_state(page, gsname)
        if gs.LW is not None:
            s.S.linewidth = gs.LW
        if gs.LC is not None:
            s.S.linecap = gs.LC
        if gs.LJ is not None:
            s.S.linejoin = gs.LJ
        if gs.ML is not None:
            s.S.miterlimit = gs.ML
        if gs.D is not None:
            raise NotImplementedError("Graphics state setting dash pattern not implemented yet")
        if gs.RI is not None:
            s.S.ri = gs.RI   # stray-attribute clone, unvalidated (see 'ri' op)

        if gs.OP is not None and gs.op is not None:
            s.S.overprint = (bool(gs.OP), bool(gs.op))
        elif gs.OP is not None:
            s.S.overprint = (bool(gs.OP), bool(gs.OP))
        elif gs.op is not None:
            s.S.overprint = (s.S.overprint[0], bool(gs.op))

        if gs.OPM is not None:
            s.S.overprintmode = bool(gs.OPM)
        if gs.Font is not None:
            s.T.Tf = gs.Font[0]
            s.T.set_Tfs(gs.Font[1])

        for key in ('BG', 'BG2', 'UCR', 'UCR2', 'TR', 'HT'):
            if getattr(gs, key) is not None:
                raise NotImplementedError(
                    "Graphics state setting (%s) not implemented yet" % key)
        if gs.FL is not None:
            s.S.flatness = gs.FL
        if gs.SM is not None:
            s.S.smoothness = gs.SM
        if gs.SA is not None:
            s.S.strokeadjustment = gs.SA
        if gs.BM is not None:
            s.S.blendmode = gs.BM
        if gs.SMask is not None:
            raise NotImplementedError("Graphics state setting (SMask) soft mask not implemented yet")
        if gs.CA is not None:
            s.S.alphaconstant = (gs.CA, s.S.alphaconstant[1])
        if gs.ca is not None:
            s.S.alphaconstant = (s.S.alphaconstant[0], gs.ca)
        if gs.AIS is not None:
            s.S.alphasource = gs.AIS
        if gs.TK is not None:
            raise NotImplementedError("Graphics state setting (TK) text knockout flag not implemented yet")


def _set_colorspace(i):
    def op(r, page, s, ops):
        cs = s.S.colorspace
        s.S.colorspace = (ops[0][1], cs[1]) if i == 0 else (cs[0], ops[0][1])
    return op


def _set_color(i):
    def op(r, page, s, ops):
        c = s.S.color
        s.S.color = (ops[0][1], c[1]) if i == 0 else (c[0], ops[0][1])
    return op


def _call(name):
    """An operator that calls GraphicsState method ``name`` with the
    operands' values."""
    def op(r, page, s, ops):
        getattr(s.S, name)(*[v[1] for v in ops])
    return op


def _call0(name):
    """A no-operand operator (its operand slot holds its own text)."""
    def op(r, page, s, ops):
        getattr(s.S, name)()
    return op


def _set_attr(name, conv=None):
    def op(r, page, s, ops):
        v = ops[0][1]
        setattr(s.S, name, conv(v) if conv else v)
    return op


def _text_set(name):
    def op(r, page, s, ops):
        getattr(s.T, name)(ops[0][1])
    return op


def _no_op(r, page, s, ops):
    pass


def _set_Tm(r, page, s, ops):
    s.T.Tm = Mat(*[v[1] for v in ops])


def _set_cm(r, page, s, ops):
    s.S.cm = Mat(*[v[1] for v in ops])


# The non-text operators of the dispatch loop (Tj, TJ, Td and Tf are
# tested first in ``Renderer._render_tokens``); anything else raises.
_OPS = {
    'BT': lambda r, page, s, ops: s.T.text_begin(),
    'ET': lambda r, page, s, ops: s.T.text_end(),
    'q': lambda r, page, s, ops: s.push(),
    'Q': lambda r, page, s, ops: s.pop(),
    'i': _set_attr('flatness', bool),
    'd': lambda r, page, s, ops: setattr(s.S, 'dashpattern', (ops[0], ops[1])),
    'j': _set_attr('linejoin'),
    'J': _set_attr('linecap'),
    'M': _set_attr('miterlimit'),
    # stray-attribute assignment, UNVALIDATED (cloned quirk: reference
    # `s.S.ri = ...` never hits its renderingintent property, so the
    # RI_MAP validation is dead code)
    'ri': _set_attr('ri'),
    'w': _set_attr('linewidth'),
    'gs': lambda r, page, s, ops: r._apply_gs(page, s, ops[0][1]),
    'm': _call('do_m'), 'l': _call('do_l'), 'c': _call('do_c'),
    'v': _call('do_v'), 'y': _call('do_y'), 're': _call('do_re'),
    'h': _call0('do_h'), 'S': _call0('do_S'), 's': _call0('do_s'),
    'n': _call0('do_n'),
    'Do': lambda r, page, s, ops: r._do_xobject(page, s, ops[0][1]),
    'CS': _set_colorspace(0), 'cs': _set_colorspace(1),
    'SC': _set_color(0), 'sc': _set_color(1),
    'SCN': _set_color(0), 'scn': _set_color(1),
    'G': _call('do_G'), 'g': _call('do_g'),
    'RG': _call('do_RG'), 'rg': _call('do_rg'),
    'K': _call('do_K'), 'k': _call('do_k'),
    'cm': _set_cm,
    'Tm': _set_Tm,
    'Tc': _text_set('set_Tc'), 'TL': _text_set('set_TL'),
    'Tr': _text_set('set_Tr'), 'Ts': _text_set('set_Ts'),
    'Tw': _text_set('set_Tw'), 'Tz': _text_set('set_Tz'),
    'TD': lambda r, page, s, ops: s.T.do_TD(ops[0][1], ops[1][1]),
    'Tstar': lambda r, page, s, ops: s.T.do_Tstar(),
}
for _op in ('Fstar', 'fstar', 'F', 'f', 'B', 'b', 'Bstar', 'bstar',
            'W', 'Wstar', 'BDC', 'EMC'):
    _OPS[_op] = _no_op


# ---------------------------------------------------------------------------
# Full-text assembly (reference GetFullText, __init__.py:548-620; T2)

def get_full_text(doc, shared, collect_spans=False):
    """Render all pages → (pages, n_spans, page_errors, spans).

    ``pages``: one string per successfully completed page (byte-equal to
    the reference's GetFullText return).
    """
    rend = Renderer(doc, shared, collect_spans)
    try:
        rend.render_pages()
    finally:
        doc.drop_views()      # refcounting then frees the document
    return rend.pages, rend.n_spans, rend.page_errors, rend.spans


def extract_turn(payload, shared, collect_spans=False):
    """Per-row extraction kernel.  Never raises.

    Returns dict: text (''.join(pages)), pages, n_spans, n_pages,
    decode_ok, error, spans (optional).
    """
    try:
        doc = PdfDocument(payload)
        pages, n_spans, page_errors, spans = get_full_text(doc, shared, collect_spans)
        return {
            'text': "".join(pages),
            'pages': pages,
            'n_spans': n_spans,
            'n_pages': len(pages),
            'decode_ok': not page_errors,
            'error': "; ".join(page_errors),
            'spans': spans,
        }
    except Exception as e:
        return {
            'text': "",
            'pages': [],
            'n_spans': 0,
            'n_pages': 0,
            'decode_ok': False,
            'error': "%s: %s" % (type(e).__name__, e),
            'spans': [] if collect_spans else None,
        }
