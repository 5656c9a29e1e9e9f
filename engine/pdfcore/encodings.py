"""Encoding tables, glyph-name→unicode map, and CMap mappers.

The code→glyph-name tables for StandardEncoding / MacRomanEncoding /
WinAnsiEncoding / PDFDocEncoding and the glyph-name→unicode map are public
standard data (PDF 1.7 spec Appendix D; Adobe Glyph List), shipped here as
JSON under ``data/`` (SURVEY.md F10).  Loaded once per process — this is
per-worker-process state in the Ray pipeline.

CMap mapper construction mirrors the reference's CMapTokenizer.BuildMapper
(pypdfproc/parser/__init__.py:932-1046; SURVEY.md P6): bfchar pairs then
bfrange triples fill an exact map; cidrange triples fill range data; lookup
checks the exact map first, then ranges in insertion order.

Identity-H (SURVEY.md F11) reduces to ``chr(cid)`` over 0..0xFFFF with an
empty exact map — computed directly instead of parsing the 256-cidrange
program.  Identity-V is *unusable in the reference* (its CMap contains
``usecmap`` which the CMap lexer cannot tokenize, and the fallback path has
a ``self.f`` attribute bug at fontcache.py:406/435) — we raise accordingly.
"""

import json
import os

from .lexers import scan_cmap
from .cos import PdfError

__all__ = ['encoding_map', 'glyph_name_to_unicode', 'build_cmap_mapper',
           'identity_h_mapper', 'identity_v_mapper', 'DATA_DIR']

DATA_DIR = os.path.join(os.path.dirname(__file__), 'data')

_ENC_MAPS = None
_GLYPH_NAMES = None


def _load():
    global _ENC_MAPS, _GLYPH_NAMES
    if _ENC_MAPS is None:
        with open(os.path.join(DATA_DIR, 'encoding_maps.json')) as f:
            raw = json.load(f)
        _ENC_MAPS = {k: {int(c): n for c, n in v.items()} for k, v in raw.items()}
        with open(os.path.join(DATA_DIR, 'glyph_names.json')) as f:
            _GLYPH_NAMES = json.load(f)


_NAME_ALIASES = {
    'StandardEncoding': 'Std',
    'MacRomanEncoding': 'Mac',
    'WinAnsiEncoding': 'Win',
    'PDFDocEncoding': 'PDF',
}


def encoding_map(name):
    """code→glyph-name dict for a named encoding (reference
    encodingmap.MapCIDToGlyphName).  Raises KeyError for unknown names —
    including non-string values, as the reference does when a FontEncoding
    object is passed by the Type1 glyph path."""
    _load()
    name = _NAME_ALIASES.get(name, name)
    if not isinstance(name, str) or name not in _ENC_MAPS:
        raise KeyError("Unrecognized encoding map name: '%s'" % (name,))
    return _ENC_MAPS[name]


def is_encoding_name(name):
    """True when ``encoding_map(name)`` returns a map."""
    _load()
    return isinstance(name, str) and _NAME_ALIASES.get(name, name) in _ENC_MAPS


def glyph_name_to_unicode(name):
    """Glyph name → unicode str (or list for multi-codepoint names), None if
    unknown (reference encodingmap.MapGlyphNameToUnicode)."""
    _load()
    return _GLYPH_NAMES.get(name)


def build_cmap_mapper(txt):
    """Build a char-code→unicode mapper closure from a CMap program."""
    toks = scan_cmap(txt)

    mapdat = {}
    rangedat = []  # insertion-ordered (start, end, unistart)

    # bfchar pairs
    codes = []
    mapon = False
    for tok in toks:
        if tok[0] == 'beginbfchar':
            mapon = True
            continue
        if mapon and tok[0] == 'endbfchar':
            for i in range(0, len(codes), 2):
                mapdat[codes[i]] = chr(codes[i + 1])
            break
        if mapon:
            if tok[0] == 'CODE':
                codes.append(tok[1])
            else:
                raise PdfError("Unrecognized token in bfchar: '%s'" % tok[0])

    # bfrange triples (CODE CODE CODE) — expands into the exact map
    codes = []
    mapon = False
    for tok in toks:
        if tok[0] == 'beginbfrange':
            mapon = True
            continue
        if mapon and tok[0] == 'endbfrange':
            for i in range(0, len(codes), 3):
                start, end, offset = codes[i], codes[i + 1], codes[i + 2]
                for k in range(start, end + 1):
                    mapdat[k] = chr(offset + (k - start))
            break
        if mapon:
            if tok[0] == 'CODE':
                codes.append(tok[1])
            elif tok[0] == 'ARR_START':
                raise PdfError("Not setup to handle bf range arrays")
            else:
                raise PdfError("Unrecognized token in bfrange: '%s'" % tok[0])

    # cidrange triples (CODE CODE INT) — kept as ranges
    ranges = []
    mapon = False
    for tok in toks:
        if tok[0] == 'begincidrange':
            mapon = True
            continue
        if mapon and tok[0] == 'endcidrange':
            for r in ranges:
                rangedat.append(r)
            break
        if mapon:
            if tok[0] == 'CODE':
                ranges.append(tok[1])
            elif tok[0] == 'INT':
                e = ranges.pop()
                s = ranges.pop()
                ranges.append((s, e, tok[1]))
            else:
                raise PdfError("Unrecognized token in cidrange: '%s'" % tok[0])

    def mapper(c):
        cc = ord(c) if isinstance(c, str) else c
        u = mapdat.get(cc)
        if u is not None:
            return u
        for (s, e, unistart) in rangedat:
            if s <= cc <= e:
                return chr(unistart + (cc - s))
        raise KeyError("Cannot map character (ord %d): not found in map" % cc)

    return mapper


def _ident_h(c):
    cc = ord(c) if isinstance(c, str) else c
    if 0 <= cc <= 0xFFFF:
        return chr(cc)
    raise KeyError("Cannot map character (ord %d): not found in map" % cc)


def identity_h_mapper():
    """The Identity-H mapper: cid → chr(cid) over the 256 cidranges of the
    standard Adobe Identity-H CMap."""
    return _ident_h


def identity_v_mapper():
    raise PdfError(
        "Identity-V is unusable in the reference (usecmap is unlexable and "
        "the fallback has a self.f attribute bug); refusing identically")
