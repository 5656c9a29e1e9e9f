"""Font caches and glyph resolution (SURVEY.md F1-F9 + width synthesis).

Re-derivation of the reference's FontCache / Type0FontCache
(pypdfproc/fontcache.py) and PDF.GetFontWidths (pypdfproc/__init__.py:
160-230).  Dispatch and quirks preserved exactly:

* Subtype dispatch order: Type0 → Type1 → str-Encoding → FontEncoding
  object.  Consequence (cloned): Type1 fonts ALWAYS take the AFM
  standard-font path, even when /Widths or /Differences are present;
  a Type1 font with a FontEncoding object fails (encoding_map KeyError).
* WinAnsi quirk (F3): unused codes > 0o40 remap to /bullet (code 0o225);
  the produced glyph keeps the bullet's cid but is cached under the
  original cid.
* Width synthesis (F9) mutates the font wrapper's FirstChar/LastChar/
  Widths; Type0 widths merge descendant /W maps and COLLAPSE CID gaps.
* Glyph widths go through ``float()``; unicode may be a str or a list
  (multi-codepoint glyph names).
* MissingGlyphName (F5): ToUnicode, then hardcoded BaseFont-suffix tables,
  then embedded-CFF glyph-name recovery with the MathematicalPi-One table
  (cloned verbatim per SURVEY.md §7.3).
"""

from math import copysign

from .cos import PdfError, Ref
from . import encodings as _enc

__all__ = ['Glyph', 'GlyphDict', 'FontCache', 'cid_width_array_to_map',
           'differences_array_to_map', 'get_font_widths']


class Glyph(object):
    __slots__ = ('cid', 'unicode', 'width')

    def __init__(self, cid, unicode_=None, width=0):
        self.cid = cid
        self.unicode = unicode_
        self.width = float(width)

    def __repr__(self):
        return "<Glyph cid=%d unicode='%s' width=%d>" % (self.cid, self.unicode, self.width or 0)


class GlyphDict(dict):
    """{cid: Glyph} of one font, plus two views of its glyphs whose
    unicode is one character, which the renderer's string-at-a-time text
    path reads: ``text`` (cid → unicode, a ``str.translate`` table) and
    ``advance`` (chr(cid) → (width - 0.0) / 1000.0, the first step of the
    glyph advance).  Both have the same codes.  ``add`` fills all three;
    an entry, once added, never changes.  A glyph of width -0.0 stays out
    of the views, so no ``advance`` entry is -0.0."""
    __slots__ = ('text', 'advance')

    def __init__(self):
        dict.__init__(self)
        self.text = {}
        self.advance = {}

    def add(self, cid, g):
        self[cid] = g
        u = g.unicode
        w = g.width
        if type(u) is str and len(u) == 1 and (w != 0 or copysign(1.0, w) > 0):
            self.text[cid] = u
            self.advance[chr(cid)] = (w - 0.0) / 1000.0


def cid_width_array_to_map(arr):
    """Type0 /W array → {cid: width}; two patterns: ``start [w…]`` and
    ``lo hi w`` (reference fontcache.py:454-491; F7)."""
    mapdat = {}

    def iorf(x):
        return type(x) == int or type(x) == float

    i = 0
    imax = len(arr)
    while i < imax:
        if iorf(arr[i]) and isinstance(arr[i + 1], list):
            basecode = arr[i]
            for v in arr[i + 1]:
                mapdat[basecode] = v
                basecode += 1
            i += 2
        elif iorf(arr[i]) and iorf(arr[i + 1]) and iorf(arr[i + 2]):
            for k in range(arr[i], arr[i + 1] + 1):
                mapdat[k] = arr[i + 2]
            i += 3
        else:
            raise PdfError("Unrecognized type (%s) in CID widths array" % (arr[i],))
    return mapdat


def differences_array_to_map(arr):
    """/Differences array → {cid: glyphname} with auto-increment
    (reference fontcache.py:493-514; F8)."""
    mapdat = {}
    lastcode = 0
    for item in arr:
        if type(item) == int:
            lastcode = item
        else:
            mapdat[lastcode] = item
            lastcode += 1
    return mapdat


def get_font_widths(shared, f):
    """Widths for a font — synthesizing from AFM when absent (reference
    PDF.GetFontWidths, __init__.py:160-230; F9).  Mutates ``f``."""
    if f.Subtype in ('TrueType', 'Type1'):
        if f.Widths is None:
            # Pure function of BaseFont → cross-turn cache on the shared
            # per-process font state (fonts repeat heavily across turns)
            cache = shared.afm_widths_synth
            # Synthesis depends on pre-set FirstChar/LastChar — only the
            # fully-AFM-derived case (both None) is turn-invariant.
            pure = f.FirstChar is None and f.LastChar is None
            if pure:
                hit = cache.get(f.BaseFont)
                if hit is not None:
                    wl, first, last = hit
                    f.FirstChar = first
                    f.LastChar = last
                    f.Widths = list(wl)
                    return f.Widths
            fm = shared.std_font(f.BaseFont)
            wids = fm.get_widths()

            mincid = 256
            maxcid = 0
            by_cname = {}
            for cname in wids.keys():
                c = fm.get_character(cname)
                if c['C'] == -1:
                    continue
                by_cname[cname] = c
                if c['C'] < mincid:
                    mincid = c['C']
                if c['C'] > maxcid:
                    maxcid = c['C']

            if f.FirstChar is None:
                f.FirstChar = mincid
            if f.LastChar is None:
                f.LastChar = maxcid

            by_cid = {}
            for wcname in wids.keys():
                if wcname not in by_cname:
                    continue
                w = by_cname[wcname]
                cid = w['C']
                if cid >= f.FirstChar and cid <= f.LastChar:
                    by_cid[cid] = w['W'][0]

            # zero-fill gaps over [mincid, maxcid] (NOT the FirstChar window)
            have = set(by_cid)
            for i in range(mincid, maxcid + 1):
                if i not in have:
                    by_cid[i] = 0

            f.Widths = [by_cid[cid] for cid in sorted(by_cid)]
            if pure:
                cache[f.BaseFont] = (tuple(f.Widths), f.FirstChar, f.LastChar)
        return f.Widths

    elif f.Subtype == 'Type0':
        widths = {}
        for subf in f.DescendantFonts:
            m = cid_width_array_to_map(subf.W)
            for k, v in m.items():
                widths[k] = v
        # Sorted by cid; CID coverage gaps collapse (cloned quirk)
        return [widths[k] for k in sorted(widths)]

    else:
        raise PdfError("Unrecognized font type '%s'" % f.Subtype)


class FontCache(object):
    """Per-document glyph/font caches (reference FontCache; F1)."""

    def __init__(self, doc, shared):
        self.doc = doc
        self.shared = shared          # SharedFontState (AFMs, encodings)
        self.font_map = {}            # oid key -> FontView
        self.glyph_map = {}           # oid key -> GlyphDict
        self.diff_map = {}            # encoding oid key -> differences map
        self.type0_map = {}           # oid key -> _Type0Cache

    def glyphs_of(self, fontview):
        """The GlyphDict of a font: the renderer reads hits from it
        directly and calls ``get_glyph`` only on a miss."""
        oid = fontview.oid.key()
        gm = self.glyph_map.get(oid)
        if gm is None:
            gm = self.glyph_map[oid] = self._new_glyph_dict(fontview)
            self.font_map[oid] = fontview
        return gm

    def _new_glyph_dict(self, f):
        """A Type1 standard font with no /Encoding or a known named one
        draws each glyph from AFM metrics and the encoding alone: a pure
        function of (BaseFont, Encoding, cid) (``_glyph_type1``).  Such a
        font gets the GlyphDict that every document shares through
        ``SharedFontState.type1_glyphs``.  The attributes are read in
        ``_glyph_type1``'s order, so a bad font fails as it would there,
        and a failed lookup stores nothing."""
        if f.Subtype == 'Type1' and type(f.BaseFont) == str \
                and f.BaseFont in self.shared.std_fonts:
            enc = f.Encoding
            if enc is None or _enc.is_encoding_name(enc):
                shared = self.shared.type1_glyphs
                gm = shared.get((f.BaseFont, enc))
                if gm is None:
                    gm = shared[(f.BaseFont, enc)] = GlyphDict()
                return gm
        return GlyphDict()

    def get_glyph(self, fontview, cid):
        gm = self.glyphs_of(fontview)
        g = gm.get(cid)
        if g is not None:
            return g
        f = self.font_map[fontview.oid.key()]
        if f.Subtype == 'Type0':
            g = self._glyph_type0(f, cid)
        elif f.Subtype == 'Type1':
            g = self._glyph_type1(f, cid)
        elif type(f.Encoding) == str:
            g = self._glyph_enc_str(f, cid)
        elif f.Encoding is not None and f.Encoding.__class__.__name__ == 'FontEncodingView':
            g = self._glyph_enc_obj(f, cid)
        else:
            raise PdfError("Unrecognized font encoding type '%s' for cid=%s"
                           % (f.Encoding, cid))
        # Cache under the ORIGINAL cid (WinAnsi bullet may change g.cid)
        gm.add(cid, g)
        return g

    def _glyph_type1(self, f, cid):
        """Type1: always AFM metrics (reference GetGlyph_Type1; F2)."""
        fm = self.shared.std_font(f.BaseFont)
        wids = fm.get_widths()
        if f.Encoding is None:
            encmap = _enc.encoding_map('Std')
        else:
            encmap = _enc.encoding_map(f.Encoding)
        if cid not in encmap:
            raise PdfError("Unable to find character code %d in encoding map for encoding %s"
                           % (cid, f.Encoding))
        gname = encmap[cid]
        u = _enc.glyph_name_to_unicode(gname)
        if u is None:
            raise NotImplementedError()
        w = wids[gname]
        g = Glyph(cid)
        g.unicode = u
        g.width = float(w[0])
        return g

    def _glyph_enc_str(self, f, cid):
        """Named encoding (TrueType/Type3); WinAnsi bullet quirk (F3)."""
        encmap = _enc.encoding_map(f.Encoding)
        # Unused WinAnsi codes > 0o40 remap to /bullet (0o225)
        if cid not in encmap and f.Encoding == 'WinAnsiEncoding' and cid > 0o40:
            cid = 0o225
        if cid not in encmap:
            raise PdfError("Unable to find character code %d in encoding map for encoding %s"
                           % (cid, f.Encoding))
        if cid - f.FirstChar > len(f.Widths):
            raise KeyError("Character code (%d) exceeds the widths array" % cid)
        gname = encmap[cid]
        u = _enc.glyph_name_to_unicode(gname)
        if u is None:
            raise NotImplementedError()
        w = f.Widths[cid - f.FirstChar]
        g = Glyph(cid)
        g.unicode = u
        g.width = float(w)
        return g

    def _glyph_enc_obj(self, f, cid):
        """FontEncoding object: BaseEncoding + Differences (F4)."""
        cmap = f.ToUnicode
        enc = f.Encoding
        if enc.BaseEncoding:
            be = enc.BaseEncoding
        else:
            be = 'StandardEncoding'
        encmap = _enc.encoding_map(be)

        ekey = enc.oid.key() if isinstance(enc.oid, Ref) else id(enc)
        if ekey not in self.diff_map:
            self.diff_map[ekey] = differences_array_to_map(enc.Differences)
        if cmap is not None and cmap.cmapper is None:
            cmap.cmapper = _enc.build_cmap_mapper(cmap.stream)

        dm = self.diff_map[ekey]
        if cid not in dm and cid not in encmap:
            raise PdfError("Unable to find character code %d in differences map (base '%s')"
                           % (cid, be))
        if cid in dm:
            gname = dm[cid]
        else:
            gname = encmap[cid]

        u = _enc.glyph_name_to_unicode(gname)
        if u is None:
            u = self._missing_glyph_name(f, encmap, cid, gname)

        w = f.Widths[cid - f.FirstChar]
        g = Glyph(cid)
        g.unicode = u
        g.width = float(w)
        return g

    def _missing_glyph_name(self, f, encmap, cid, gname):
        """Harder glyph-name recovery (reference MissingGlyphName,
        fontcache.py:231-368; F5)."""
        fd = f.FontDescriptor
        cmap = f.ToUnicode

        if f.ToUnicode:
            try:
                return cmap.cmapper(cid)
            except KeyError:
                pass

        if f.BaseFont is not None:
            if f.BaseFont.endswith('AdvP4C4E74'):
                t = _ADVP4C4E74.get(gname)
                if t is not None:
                    return t
            if f.BaseFont.endswith('AdvPSSym'):
                if gname == 'C211':
                    return '©'

        if fd is None:
            raise PdfError("No FontDescriptor for glyph-name recovery")
        ff = fd.FontFile3
        from .cff import parse_cff
        glyphs = parse_cff(ff.stream)
        gmatch = None
        for g in glyphs:
            if g['cname'] == gname:
                gmatch = g
                break
        if gmatch:
            gcid = gmatch['cid']
            if f.BaseFont is not None and f.BaseFont.endswith('MathematicalPi-One'):
                u = _MATHPI_ONE.get(gcid)
                if u is not None:
                    return u
        raise PdfError("Unable to find unicode for character ord=%d" % cid)

    def _glyph_type0(self, f, cid):
        oid = f.oid.key()
        if oid not in self.type0_map:
            self.type0_map[oid] = _Type0Cache(f)
        return self.type0_map[oid].get_glyph(cid)


class _Type0Cache(object):
    """Type0/CID font glyph cache (reference Type0FontCache; F6).

    Mirrors the reference's reachable behavior: ToUnicode CMap, or
    Identity-H fallback; Identity-V and embedded-CFF descendants raise
    (those paths are broken/unfinished in the reference — fontcache.py
    406/435 ``self.f`` bug and 409-422 NotImplementedError)."""

    def __init__(self, f):
        self.font = f
        self.widthmap = {}
        for subf in f.DescendantFonts:
            m = cid_width_array_to_map(subf.W)
            for k, v in m.items():
                self.widthmap[k] = (v, subf)
        self._mapper = None

    def _get_mapper(self):
        if self._mapper is not None:
            return self._mapper
        cmap = self.font.ToUnicode
        if cmap is None:
            if self.font.Encoding == 'Identity-H':
                self._mapper = _enc.identity_h_mapper()
            elif self.font.Encoding == 'Identity-V':
                # reference: `self.f.Encoding` AttributeError (latent bug)
                raise PdfError("Type0 Identity-V path is broken in the reference (self.f)")
            else:
                raise NotImplementedError(
                    "Type0 without ToUnicode and non-Identity encoding (embedded CFF path unfinished in reference)")
        else:
            if cmap.cmapper is None:
                cmap.cmapper = _enc.build_cmap_mapper(cmap.stream)
            self._mapper = cmap.cmapper
        return self._mapper

    def get_glyph(self, cid):
        mapper = self._get_mapper()
        try:
            u = mapper(cid)
        except KeyError:
            if self.font.Encoding == 'Identity-H':
                u = _enc.identity_h_mapper()(cid)
            elif self.font.Encoding == 'Identity-V':
                raise PdfError("Type0 Identity-V path is broken in the reference (self.f)")
            else:
                raise
        if cid not in self.widthmap:
            raise KeyError('Could not find glyph CID %d in width array' % cid)
        g = Glyph(cid)
        g.width = float(self.widthmap[cid][0])
        g.unicode = u
        return g


# BaseFont-suffix recovery tables (reference fontcache.py:249-257)
_ADVP4C4E74 = {
    'C0': '−', 'C6': '±', 'C14': '°', 'C15': '•',
    'C211': '©',
}

# MathematicalPi-One glyph-cid → unicode table (reference fontcache.py:282-366,
# cloned verbatim per SURVEY.md §7.3)
_MATHPI_ONE = {
    ord('A'): 'Α', ord('B'): 'Β', ord('C'): 'Ψ',
    ord('D'): 'Δ', ord('E'): 'Ε', ord('F'): 'Φ',
    ord('G'): 'Γ', ord('H'): 'Η', ord('I'): 'Ι',
    ord('J'): 'Ξ', ord('K'): 'Κ', ord('L'): 'Λ',
    ord('M'): 'Μ', ord('N'): 'Ν', ord('O'): 'Ο',
    ord('P'): 'Π', ord('Q'): 'ϴ', ord('R'): 'Ρ',
    ord('S'): 'Σ', ord('T'): 'Τ', ord('U'): 'Θ',
    ord('V'): 'Ω', ord('W'): 'ϐ', ord('X'): 'Χ',
    ord('Y'): 'Υ', ord('Z'): 'Ζ',
    ord('a'): 'α', ord('b'): 'β', ord('c'): 'ψ',
    ord('d'): 'δ', ord('e'): 'ε', ord('f'): 'φ',
    ord('g'): 'γ', ord('h'): 'η', ord('i'): 'ι',
    ord('j'): 'ξ', ord('k'): 'κ', ord('l'): 'λ',
    ord('m'): 'μ', ord('n'): 'ν', ord('o'): 'ο',
    ord('p'): 'π', ord('q'): 'ϑ', ord('r'): 'ρ',
    ord('s'): 'σ', ord('t'): 'τ', ord('u'): 'θ',
    ord('v'): 'ω', ord('w'): 'ϕ', ord('x'): 'χ',
    ord('y'): 'υ', ord('z'): 'ζ',
    ord('0'): '″', ord('1'): '(', ord('2'): '−',
    ord('3'): '×', ord('4'): '÷', ord('5'): '=',
    ord('6'): '±', ord('7'): '∓', ord('8'): '°',
    ord('9'): '′',
    ord('!'): '≪', ord('@'): '≫', ord('#'): '≤',
    ord('$'): '≥', ord('%'): '≦', ord('^'): '≧',
    ord('&'): '≲', ord('*'): '≳',
    ord('{'): '-', ord('}'): '—', ord('['): '∅',
    ord(']'): '–', ord(':'): 'ℵ', ord(';'): '∀',
    ord('?'): '∙', ord('-'): '‴', ord('+'): '≶',
    ord('='): '∇',
}
