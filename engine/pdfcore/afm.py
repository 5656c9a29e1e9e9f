"""AFM (Adobe Font Metrics) parsing for the 14 standard fonts.

Re-derivation of the reference's AFM tokenizer + parser (pypdfproc/parser/
fontmetrics.py, parser/__init__.py:1129-1222, fontmetrics.py; SURVEY.md
P7/S3/F12) as a direct line/field parser — no lexer framework.

Deliberately cloned quirk: the reference's parser only flushes a character
metric when the *next* ``C`` token arrives, so the LAST CharMetrics row of
every AFM file is dropped (e.g. /Euro in Helvetica).  Width averages and
synthesized width arrays depend on this; we reproduce it.

Fields kept: per-character ``C`` (code) and ``W`` (wx, 0) indexed by glyph
name (the extraction path), plus ligatures and KPX kerning pairs (the
reference's F12 accessor surface — unreachable from GetFullText but part
of its public FontMetricsData API, fontmetrics.py:179-291).
"""

import re
import zipfile

__all__ = ['parse_afm', 'FontMetrics', 'load_afm_zip']

_TOKEN_SPLIT = re.compile(r'\s*;\s*')


class FontMetrics(object):
    """Parsed metrics for one font: ``char_metrics[name] = {'C':…, 'W':(wx,0)}``,
    ``ligatures = [{'base':…, 'successor':…, 'ligature':…}, …]``,
    ``kern_pairs = {(c1, c2): (kx, 0)}``."""

    __slots__ = ('font_name', 'char_metrics', 'ligatures', 'kern_pairs',
                 '_widths')

    def __init__(self, font_name, char_metrics, ligatures=None, kern_pairs=None):
        self.font_name = font_name
        self.char_metrics = char_metrics
        self.ligatures = ligatures if ligatures is not None else []
        self.kern_pairs = kern_pairs if kern_pairs is not None else {}
        self._widths = None

    def get_widths(self):
        """name → (wx, 0) for every (kept) character (reference
        FontMetricsData.GetWidths).  Memoized: FontMetrics instances are
        corpus-invariant per-process state, and the reference rebuilds this dict
        per call only because it never amortizes anything."""
        if self._widths is None:
            self._widths = {k: v['W'] for k, v in self.char_metrics.items()}
        return self._widths

    def get_character(self, name):
        """Metrics dict for a glyph name, or None (reference GetCharacter
        string path)."""
        return self.char_metrics.get(name)

    def get_kerning_pairs_for_char(self, charname):
        """{successor: (kx, 0)} for every kern pair led by ``charname``
        (reference GetKerningPairsForChar, fontmetrics.py:278-291)."""
        return {k[1]: v for k, v in self.kern_pairs.items()
                if k[0] == charname}

    def get_ligatures_forward(self, firstchar):
        """Ligature records whose ``base`` equals ``firstchar`` (reference
        GetLigaturesForward, fontmetrics.py:179 — note the cloned parser
        quirk below: ``base`` is the previously-COMMITTED char dict)."""
        return [l for l in self.ligatures if l['base'] == firstchar]

    def get_ligatures_backward(self, ligchar):
        """Ligature records producing glyph ``ligchar`` (reference
        GetLigaturesBackward, fontmetrics.py:192)."""
        return [l for l in self.ligatures if l['ligature'] == ligchar]


def _intorfloat(v):
    try:
        return int(v)
    except (TypeError, ValueError):
        return float(v)


def parse_afm(txt):
    """Parse AFM text → FontMetrics.

    The CharMetrics section is a sequence of ``;``-separated key/value
    fields per line (``C 32 ; WX 278 ; N space ; B 0 0 0 0 ;``).  Rows are
    accumulated and flushed on the next ``C`` — the last row is never
    flushed (cloned reference bug, parser/__init__.py:1193-1198).

    Cloned ligature quirk: the reference binds ``L``'s ``base`` to
    ``lastchar`` — the previously COMMITTED char dict, i.e. the char of the
    PREVIOUS metrics line, not the line carrying the ``L`` field (off-by-
    one in parser/__init__.py:1186-1210; ``base`` is None for a ligature
    on the first line).  Kerning keeps only ``KPX`` rows inside
    StartKernPairs, value ``(int(kx), 0)``, exactly the reference's KPX
    token handling (parser/fontmetrics.py:291-300).
    """
    font_name = None
    char_metrics = {}
    ligatures = []
    kern_pairs = {}
    in_char = False
    in_kern = False
    cur = {}
    lastchar = None

    for line in txt.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith('FontName '):
            font_name = line[len('FontName '):]
            continue
        if line.startswith('StartCharMetrics'):
            in_char = True
            continue
        if line.startswith('EndCharMetrics'):
            in_char = False
            # NB: deliberately no flush of ``cur`` here (see module docstring)
            continue
        if line.startswith('StartKernPairs'):
            in_kern = True
            continue
        if line.startswith('EndKernPairs'):
            in_kern = False
            continue
        if in_kern:
            if line.startswith('KPX '):
                parts = line[len('KPX '):].split()
                kern_pairs[(parts[0], parts[1])] = (int(parts[2]), 0)
            continue
        if not in_char:
            continue
        for field in _TOKEN_SPLIT.split(line):
            field = field.strip()
            if not field:
                continue
            if field.startswith('C '):
                if cur:
                    char_metrics[cur['N']] = cur
                    lastchar = cur
                    cur = {}
                cur['C'] = _intorfloat(field[2:])
            elif field.startswith('WX '):
                cur['W'] = (_intorfloat(field[3:]), 0)
            elif field.startswith('N '):
                cur['N'] = field[2:].strip()
            elif field.startswith('L '):
                parts = field[2:].split()
                ligatures.append({'base': lastchar,
                                  'successor': parts[0],
                                  'ligature': parts[1]})
            # B (bbox) and others are not needed downstream

    return FontMetrics(font_name, char_metrics, ligatures, kern_pairs)


def load_afm_zip(path, fonts=None):
    """Parse every AFM in a zip → {font_name: FontMetrics} (reference
    FontMetricsManager.AddZip)."""
    out = {}
    with zipfile.ZipFile(path) as z:
        for fname in z.namelist():
            name = fname.split('.')[0]
            if fonts is not None and name not in fonts:
                continue
            txt = z.read(fname).decode('latin-1')
            fm = parse_afm(txt)
            if fm.font_name in out:
                raise ValueError("Already loaded font '%s'" % fm.font_name)
            out[fm.font_name] = fm
    return out
