"""Per-document structure resolution: header, xref/trailer chain, object
graph, page tree, resources, fonts.

Re-derivation of the reference's PDFTokenizer + PDF skeleton + dynamic
loader (pypdfproc/parser/__init__.py:48-908, pypdfproc/pdf.py:12-134,
599-665; SURVEY.md R1-R12, P9, P10).  A document lives entirely inside one
row's parse in the Ray pipeline — plain Python, never distributed.

Deliberately cloned behaviors (see SURVEY.md §7.3 "clone the bug" items):

* xref map is built newest-first (walk order) with first-seen-wins keys —
  incremental-update semantics (R4).
* Plaintext xref tables: only the first subsection is honored (the
  reference's consolidator reads exactly ``numobjs`` rows and ignores the
  rest).
* XRef streams: ``Index`` is read as ``[start, count]``; additional pairs
  are ignored; a row-size sanity check mirrors pdf.py:626-627.
* Object caching keyed (objid, generation); the first interpretation wins.
* Inline (non-indirect) Resources on a Form XObject are pushed raw onto the
  resource stack and fail on font lookup, as the reference's Dictionary
  does (AttributeError analog).
* ``FontDescriptor.FontFile2`` access fails (reference has a latent
  ``sefl`` typo at parser/__init__.py:880 — that path never worked).
"""

import re
from bisect import bisect_left, bisect_right

from .lexers import scan_cos
from .cos import (Ref, Hexstring, StreamObj, PdfError, parse_values,
                  parse_object_body, parse_object_rest, parse_object_at,
                  parse_xref_table_tokens, parse_trailer_tokens,
                  parse_trailer_text)

__all__ = ['PdfDocument', 'ResourceView', 'FontView', 'CIDFontView',
           'FontEncodingView', 'FontDescriptorView', 'GraphicsStateView',
           'XObjectView']

_LINE_SPLIT = re.compile(r'\r\n|\r|\n')
_XREF_COUNTS = re.compile(r'([0-9]+) ([0-9]+)')
_XREF_ROWS = re.compile(r'(?:[0-9]{10} [0-9]{5} [nf]\n)*')
# The last line that rstrips to 'startxref', then only whitespace, the
# offset and %%EOF: the shape whose lines lex to exactly those tokens.
_STARTXREF = re.compile(
    r'startxref[\t ]*(?:\r\n|\r|\n)[\t\r\n ]*([0-9]+)[\t\r\n ]*%%EOF[\t\r\n ]*')


class _XrefCombo(object):
    """One xref section (plaintext table or xref stream) in walk order."""
    __slots__ = ('kind', 'rows', 'dict')

    def __init__(self, kind, rows, d):
        self.kind = kind  # 'table' | 'stream'
        self.rows = rows
        self.dict = d  # trailer dict (table) or stream dict (stream)


def _iter_lines_rev(data, end):
    """Yield (line, startpos) scanning backwards from ``end`` (exclusive),
    recognizing CR, LF and CRLF line ends (reference betterfile.readlinerev)."""
    pos = end
    while pos > 0:
        # Skip the line terminator immediately before pos
        stop = pos
        if data[stop - 1] == '\n':
            stop -= 1
            if stop > 0 and data[stop - 1] == '\r':
                stop -= 1
        elif data[stop - 1] == '\r':
            stop -= 1
        start = stop
        while start > 0 and data[start - 1] not in '\r\n':
            start -= 1
        yield data[start:stop], start
        pos = start


def _read_line(data, pos):
    """Read one line starting at ``pos``; returns (line_without_eol, next_pos)."""
    m = _LINE_SPLIT.search(data, pos)
    if m is None:
        return data[pos:], len(data)
    return data[pos:m.start()], m.end()


class PdfDocument(object):
    """One parsed PDF document over a latin-1 ``str`` payload."""

    def __init__(self, data):
        if isinstance(data, (bytes, bytearray)):
            data = bytes(data).decode('latin-1')
        self.data = data
        self.combos = []          # _XrefCombo list, newest first (walk order)
        self.objmap = {}          # (objid,gen) -> offset | (Ref(stream), idx)
        self.cache = {}           # (objid,gen) -> list of parsed values
        self._wrappers = {}       # (objid,gen) -> typed view (first wins)
        self._objstm_cache = {}   # (objid,gen) -> _ObjStmIndex
        self.version = None
        self._parse_header()
        self._walk_xref_chain()
        self._make_objmap()

    # -- structure bootstrap (R1-R4) ------------------------------------

    def _parse_header(self):
        line, _ = _read_line(self.data, 0)
        parts = line.split()
        if not parts or not parts[0].startswith('%PDF-'):
            raise PdfError("File does not begin with %PDF and therefore is not a PDF")
        self.version = parts[0].split('-')[1]

    def _find_startxref(self):
        """Reverse line scan from EOF until a line rstrips to 'startxref'
        (reference parser/__init__.py:81-108).  The usual tail is matched
        in one step from the last 'startxref'."""
        data = self.data
        i = data.rfind('startxref')
        if i == 0 or i > 0 and data[i - 1] in '\r\n':
            m = _STARTXREF.fullmatch(data, i)
            if m is not None:
                return int(m.group(1))
        lines = []
        found = False
        for line, _ in _iter_lines_rev(self.data, len(self.data)):
            s = line.rstrip()
            lines.append(s)
            if s == 'startxref':
                found = True
                break
        if not found:
            raise PdfError("Unable to find startxref reading backward")
        lines.reverse()
        toks = scan_cos("\r\n".join(lines))
        if not toks or toks[0][0] != 'xref_start':
            raise PdfError("Expected xref_start token")
        if toks[1][0] != 'INT':
            raise PdfError("Expected int token after startxref")
        if toks[2][0] != 'EOF':
            raise PdfError("Expected EOF token after startxref offset")
        return toks[1][1]

    def _walk_xref_chain(self):
        offset = self._find_startxref()
        seen_offsets = set()
        guard = 0
        while offset != 0:
            guard += 1
            if guard > 10000:
                # The reference would loop forever here; fail instead.
                raise PdfError("xref chain too long / cyclic")
            combo, next_offset = self._parse_xref_at(offset)
            seen_offsets.add(offset)
            self.combos.append(combo)
            offset = next_offset
            if offset > 0 and offset in seen_offsets:
                break

    def _parse_xref_at(self, offset):
        first_line, _ = _read_line(self.data, offset)
        if first_line == 'xref':
            return self._parse_xref_table(offset)
        toks = scan_cos(first_line)
        if len(toks) == 3 and toks[0][0] == 'INT' and toks[1][0] == 'INT' and toks[2][0] == 'obj':
            return self._parse_xref_stream(offset)
        return self._parse_xref_table(offset)

    def _parse_xref_stream(self, offset):
        so = self._object_at(offset)[0]
        if not isinstance(so, StreamObj):
            raise PdfError("xref stream object did not contain a stream")
        rows = _xref_stream_rows(so)
        combo = _XrefCombo('stream', rows, so.dict)
        nxt = so.dict.get('Prev', 0)
        return combo, nxt

    def _parse_xref_table(self, offset):
        fast = _xref_table_fast(self.data, offset)
        if fast is not None:
            rows, (tdict, sx_offset) = fast
            return _XrefCombo('table', rows, tdict), tdict.get('Prev', sx_offset)
        # Collect lines until one starting with 'trailer' (not inclusive)
        pos = offset
        lines = []
        n = len(self.data)
        while True:
            if pos >= n:
                raise PdfError("Reached end-of-file before xref was read")
            line, nxt = _read_line(self.data, pos)
            if line.startswith('trailer'):
                break
            lines.append(line.rstrip())
            pos = nxt
        rows = _xref_table_rows(lines)
        # Parse trailer from the 'trailer' line until %%EOF inclusive
        tlines = []
        tpos = pos
        while True:
            if tpos >= n:
                raise PdfError("Reached end-of-file before trailer was read")
            line, tpos = _read_line(self.data, tpos)
            tlines.append(line.rstrip())
            if line.rstrip() == '%%EOF':
                break
        ttoks = scan_cos("\r\n".join(tlines))
        tdict, sx_offset = parse_trailer_tokens(ttoks)
        combo = _XrefCombo('table', rows, tdict)
        if 'Prev' in tdict:
            nxt = tdict['Prev']
        else:
            nxt = sx_offset
        return combo, nxt

    def _make_objmap(self):
        """First-seen-wins over walk order = newest version of each object
        (reference pdf.py:51-133)."""
        objmap = self.objmap
        for combo in self.combos:
            if combo.kind == 'table':
                for (objid, off, gen, flag) in combo.rows:
                    if flag == 'f':
                        continue
                    p = (objid, gen)
                    if p not in objmap:
                        objmap[p] = off
            else:
                for row in combo.rows:
                    f1, objid, f2, f3 = row
                    if f1 == 0:
                        continue
                    elif f1 == 1:
                        p = (objid, f3)
                        if p not in objmap:
                            objmap[p] = f2
                    elif f1 == 2:
                        k = (objid, 0)
                        if k not in objmap:
                            objmap[k] = (Ref(f2, 0), f3)
                    else:
                        raise PdfError("Unrecognized xref stream row type: %d" % f1)

    # -- object loading (R5, R6, P10) -----------------------------------

    def _object_at(self, offset, fast=True):
        """Values of the object at ``offset``: the one-pass parse, or the
        token path where that gives up (or ``fast`` is False)."""
        if fast:
            vals = parse_object_at(self.data, offset, self._stream_length)
            if vals is not None:
                return vals
        head = []
        toks = self._scan_object_at(offset, head)
        if head:
            return parse_object_rest(toks, head[0], head[1])
        return parse_object_body(toks)[2]

    def _scan_object_at(self, offset, head=None):
        """Scan tokens for one object at ``offset`` (the token path).  At a
        ``stream`` keyword the scan parses the dictionary it has lexed,
        reads /Length from it and goes on, so the dictionary is lexed once
        (the reference scans twice, parser/__init__.py:365-414; the tokens
        are the same).  If ``head`` is a list it gets the token count and
        values of that parse, so the caller does not parse them again.
        An indirect /Length loads through the token path too."""
        def length(toks):
            vals = parse_object_body(toks)[2]
            if head is not None:
                head[:] = [len(toks), vals]
            return self._stream_length(vals, fast=False)
        return scan_cos(self.data, pos=offset, stoptoken='endobj',
                        streamlength=length)

    def _stream_length(self, vals, fast=True):
        """/Length of the stream dictionary ``vals[0]``."""
        d = vals[0]
        dlen = d['Length']
        if isinstance(dlen, Ref):
            return self.get_object_values(dlen, fast)[0]
        if isinstance(dlen, int):
            return dlen
        raise PdfError("Unknown type for stream length: %s" % (dlen,))

    def get_object_values(self, ref, fast=True):
        """Load (with cache) the raw parsed values of an indirect object."""
        k = ref.key() if isinstance(ref, Ref) else tuple(ref)
        if k in self.cache:
            return self.cache[k]
        if k not in self.objmap:
            raise PdfError("Object %d (generation %d) not found in file" % k)
        offset = self.objmap[k]
        if isinstance(offset, int):
            vals = self._object_at(offset, fast)
        else:
            stream_ref, idx = offset
            stm = self._get_objstm(stream_ref)
            vals = stm.get_object_values(idx)
        self.cache[k] = vals
        return vals

    def _get_objstm(self, ref):
        k = ref.key()
        if k not in self._objstm_cache:
            vals = self.get_object_values(ref)
            so = vals[0]
            if not isinstance(so, StreamObj):
                raise PdfError("Object stream %s is not a stream" % (ref,))
            self._objstm_cache[k] = _ObjStmIndex(so)
        return self._objstm_cache[k]

    def resolve(self, v):
        """Ref → first object value; everything else unchanged."""
        if isinstance(v, Ref):
            return self.get_object_values(v)[0]
        return v

    # -- root / page tree (R7, R11) -------------------------------------

    def find_root_ref(self):
        """Walk combos newest-first for /Root (reference
        parser/__init__.py:443-472).  NB: the reference infinite-loops on an
        xref stream without Root; we raise instead."""
        for combo in self.combos:
            if combo.kind == 'table':
                if 'Root' in combo.dict:
                    return combo.dict['Root']
            else:
                if 'Root' in combo.dict:
                    return combo.dict['Root']
                raise PdfError("xref stream without Root (reference would loop forever)")
        return None

    def get_catalog(self):
        ind = self.find_root_ref()
        if ind is None:
            raise PdfError("Failed to find root catalog node")
        return self.resolve(ind)

    def dfs_pages(self):
        """Page leaves in display order (reference pdf.py:522-538)."""
        cat = self.get_catalog()
        pages_ref = cat['Pages']
        root = self._page_node(pages_ref)
        out = []
        self._dfs(root, out)
        return out

    def _page_node(self, v):
        node = self.resolve(v)
        if not isinstance(node, dict):
            raise PdfError("Page tree node is not a dictionary")
        return node

    def _dfs(self, node, out):
        kids = node.get('Kids')
        kids = self.resolve(kids)
        if kids is None:
            raise PdfError("PageTreeNode without Kids")
        for kv in kids:
            k = self._page_node(kv)
            typ = k.get('Type')
            if typ == 'Page':
                # remember oid for caches keyed on page objects (unused now)
                out.append(k)
            elif typ == 'Pages':
                self._dfs(k, out)
            else:
                raise PdfError(
                    "Unrecognized kid type (%s) of PageTreeNode: expected Page or Pages" % typ)

    # -- page pieces ------------------------------------------------------

    def page_content_text(self, page):
        """Concatenate a page's content streams with a single space
        (reference __init__.py:312-325 — the " ".join quirk)."""
        cts = page.get('Contents')
        cts = self.resolve_contents(cts)
        if isinstance(cts, list):
            parts = []
            for c in cts:
                if isinstance(c, Ref):
                    c = self.resolve(c)
                if not isinstance(c, StreamObj):
                    raise PdfError("Unexpected type for content array: '%s'" % (c,))
                parts.append(c.stream)
            return " ".join(parts)
        if isinstance(cts, StreamObj):
            return cts.stream
        raise PdfError("Page has no usable Contents (%r)" % (cts,))

    def resolve_contents(self, v):
        if isinstance(v, Ref):
            return self.resolve(v)
        return v

    def page_resources(self, page):
        """Page Resources as a ResourceView (inline dict or indirect);
        anything else comes back raw and fails on use, like the reference."""
        v = page.get('Resources')
        if isinstance(v, dict):
            return ResourceView(self, v, None)
        if isinstance(v, Ref):
            d = self.resolve(v)
            if isinstance(d, dict):
                return ResourceView(self, d, v)
            return d
        return v

    # -- typed views ------------------------------------------------------

    def drop_views(self):
        """Forget the cached typed views.  Each view points back at this
        document, so while they are cached the document sits in a
        reference cycle and only the cyclic GC can free it."""
        self._wrappers.clear()

    def get_font(self, ref):
        k = ref.key()
        w = self._wrappers.get(k)
        if w is None:
            d = self.resolve(ref)
            if not isinstance(d, dict):
                raise PdfError("Font object is not a dictionary")
            styp = d.get('Subtype')
            if styp in ('Type0', 'Type1', 'Type3', 'TrueType'):
                w = FontView(self, d, ref)
            elif styp in ('CIDFontType0', 'CIDFontType2'):
                w = CIDFontView(self, d, ref)
            else:
                raise PdfError("Unrecognized font subtype (%s)" % styp)
            self._wrappers[k] = w
        return w

    def get_font_encoding(self, ref):
        k = ref.key()
        w = self._wrappers.get(k)
        if w is None:
            d = self.resolve(ref)
            w = FontEncodingView(self, d, ref)
            self._wrappers[k] = w
        return w

    def get_stream(self, ref):
        v = self.resolve(ref)
        if not isinstance(v, StreamObj):
            raise PdfError("Expected stream object at %s" % (ref,))
        return v

    def get_xobject(self, ref):
        k = ref.key()
        w = self._wrappers.get(k)
        if w is None:
            vals = self.get_object_values(ref)
            so = vals[0]
            if not isinstance(so, StreamObj):
                raise PdfError("XObject is not a stream")
            styp = so.dict.get('Subtype')
            if styp not in ('Form', 'Image'):
                raise PdfError("Unrecognized XObject subtype (%s)" % styp)
            w = XObjectView(self, so, styp, ref)
            self._wrappers[k] = w
        return w

    def get_graphics_state(self, ref):
        k = ref.key()
        w = self._wrappers.get(k)
        if w is None:
            d = self.resolve(ref)
            w = GraphicsStateView(self, d, ref)
            self._wrappers[k] = w
        return w


def _split_lines(text):
    """``text`` split at CR, LF and CRLF as ``_read_line`` reads it."""
    return text.replace('\r\n', '\n').replace('\r', '\n').split('\n')


def _xref_table_fast(data, offset):
    """(rows, (trailer dict, startxref offset)) of the plaintext xref
    section at ``offset``, read with ``find`` and ``split`` where
    ``_parse_xref_table``'s line loop reads line by line, or None.

    The section runs up to the first line that starts with ``trailer``,
    and the trailer up to the first line that rstrips to ``%%EOF``: the
    first occurrences of those words, when each starts a line (else an
    earlier or later line may be the one).  The rows go through
    ``_xref_table_rows`` and the trailer through ``parse_trailer_text``,
    each with the rstripped lines the loop gives, which end in ``%%EOF``
    only if that line rstrips to it; any other shape returns None."""
    t = data.find('trailer', offset)
    if t <= offset or data[t - 1] not in '\r\n':
        return None
    eof = data.find('%%EOF', t)
    if eof < 0 or data[eof - 1] not in '\r\n':
        return None
    cr, lf = data.find('\r', eof), data.find('\n', eof)
    end = min(cr, lf) if cr >= 0 and lf >= 0 else max(cr, lf)
    if end < 0:
        end = len(data)
    trailer = parse_trailer_text(
        '\r\n'.join([ln.rstrip() for ln in _split_lines(data[t:end])]))
    if trailer is None:
        return None
    lines = [ln.rstrip() for ln in _split_lines(data[offset:t])]
    lines.pop()       # the empty text after the line end before 'trailer'
    return _xref_table_rows(lines), trailer


def _xref_table_rows(lines):
    """Rows of a plaintext xref table from its rstripped lines (``xref``
    up to the ``trailer`` line).  A table of one well-formed subsection
    (``xref``, ``first count``, then ``count`` rows of ``_XREF_ROWS``) is
    read straight from its lines, matched as one text; any other shape
    goes through the lexer and ``parse_xref_table_tokens``, which read
    only the first subsection and raise the reference's errors."""
    if len(lines) >= 2 and lines[0] == 'xref':
        m = _XREF_COUNTS.fullmatch(lines[1])
        if m is not None:
            first, count = int(m.group(1)), int(m.group(2))
            if len(lines) - 2 == count:
                body = '\n'.join(lines[2:] + [''])
                if _XREF_ROWS.fullmatch(body):
                    f = body.split()      # offset, generation, flag per row
                    return list(zip(range(first, first + count), map(int, f[0::3]),
                                    map(int, f[1::3]), f[2::3]))
    return parse_xref_table_tokens(scan_cos("\r\n".join(lines)))


def _xref_stream_rows(so):
    """Decode binary xref-stream rows (reference pdf.py:617-660; P9).

    Returns (type, objid, f2, f3) tuples.  ``W`` widths of 0 read as 0 —
    including the type field, which the reference then treats as 'free'.
    """
    d = so.dict
    W = d['W']
    if 'Index' in d:
        index = d['Index']
    else:
        index = [0, d['Size']]
    rowsize = W[0] + W[1] + W[2]
    objidstart = index[0]
    size = index[1]
    stream = so.stream
    if rowsize * size > len(stream):
        raise PdfError(
            "Xref stream should be %d bytes but stream is %d bytes"
            % (rowsize * size, len(stream)))
    buf = bytes(stream, 'latin-1')

    rows = []
    off = 0
    for cnt in range(size):
        f1 = int.from_bytes(buf[off:off + W[0]], 'big') if W[0] else 0
        f2 = int.from_bytes(buf[off + W[0]:off + W[0] + W[1]], 'big') if W[1] else 0
        f3 = int.from_bytes(buf[off + W[0] + W[1]:off + rowsize], 'big') if W[2] else 0
        oid = cnt + objidstart
        if f1 not in (0, 1, 2):
            raise PdfError("Unrecognized xref stream row type: %d" % f1)
        rows.append((f1, oid, f2, f3))
        off += rowsize
    return rows


class _ObjStmIndex(object):
    """Index into an /ObjStm payload (reference ObjectStreamTokenizer,
    parser/__init__.py:1065-1127; SURVEY.md P10).  The reference filters
    the whole token list once per object; tokens are sorted by position,
    so each object's slice is found by bisecting the positions."""

    def __init__(self, so):
        self.so = so
        self.N = so.dict['N']
        self.First = so.dict['First']
        self._objects = None

    def _process(self):
        if self._objects is not None:
            return
        stream = self.so.stream
        toks = scan_cos(stream)
        n2 = self.N * 2
        header = [toks[i][1] for i in range(n2)]
        pairs = [(header[i], header[i + 1]) for i in range(0, n2, 2)]
        # (start, end) char ranges per object, end exclusive of next start
        bounds = []
        for i, (_oid, off) in enumerate(pairs):
            start = off + self.First
            if i + 1 < len(pairs):
                end = pairs[i + 1][1] - 1 + self.First
            else:
                end = len(stream) - 1 + self.First
            bounds.append((start, end))
        positions = [t[2] for t in toks]
        self._objects = []
        for (start, end) in bounds:
            sl = toks[bisect_left(positions, start):bisect_right(positions, end)]
            self._objects.append(parse_values(sl))

    def get_object_values(self, index):
        self._process()
        return self._objects[index]


class ResourceView(object):
    """A /Resources dictionary with the reference's lazy-resolution policy
    (SURVEY.md R10: Resource keys — inline dict/array kept, indirect loaded
    as a plain dictionary)."""

    def __init__(self, doc, d, ref):
        self._doc = doc
        self._d = d
        self.oid = ref
        self._cache = {}

    def get(self, key):
        if key in self._cache:
            return self._cache[key]
        v = self._d.get(key)
        if isinstance(v, Ref):
            v = self._doc.resolve(v)
        self._cache[key] = v
        return v

    @property
    def Font(self):
        return self.get('Font')

    @property
    def ExtGState(self):
        return self.get('ExtGState')

    @property
    def XObject(self):
        return self.get('XObject')


class FontView(object):
    """Typed view of a simple or composite font dictionary with the lazy
    attribute-resolution policy of the reference's _DynamicLoader
    (parser/__init__.py:823-875)."""

    def __init__(self, doc, d, ref):
        self._doc = doc
        self._d = d
        self.oid = ref
        self._cache = {}
        self.Subtype = d.get('Subtype')
        self.BaseFont = d.get('BaseFont')
        # FirstChar/LastChar/Widths are mutated by width synthesis (F9)
        self.FirstChar = d.get('FirstChar')
        self.LastChar = d.get('LastChar')
        self.Widths = self._load_widths(d.get('Widths'))

    def _load_widths(self, v):
        if isinstance(v, Ref):
            return self._doc.resolve(v)
        return v

    @property
    def Encoding(self):
        if 'Encoding' not in self._cache:
            v = self._d.get('Encoding')
            if isinstance(v, Ref):
                v = self._doc.get_font_encoding(v)
            self._cache['Encoding'] = v
        return self._cache['Encoding']

    @property
    def ToUnicode(self):
        if 'ToUnicode' not in self._cache:
            v = self._d.get('ToUnicode')
            if isinstance(v, Ref):
                v = self._doc.get_stream(v)
            self._cache['ToUnicode'] = v
        return self._cache['ToUnicode']

    @property
    def FontDescriptor(self):
        if 'FontDescriptor' not in self._cache:
            v = self._d.get('FontDescriptor')
            if isinstance(v, Ref):
                v = FontDescriptorView(self._doc, self._doc.resolve(v), v)
            self._cache['FontDescriptor'] = v
        return self._cache['FontDescriptor']

    @property
    def DescendantFonts(self):
        if 'DescendantFonts' not in self._cache:
            v = self._d.get('DescendantFonts')
            if isinstance(v, Ref):
                v = self._doc.resolve(v)
            if isinstance(v, list):
                v = [self._doc.get_font(a) for a in v]
            self._cache['DescendantFonts'] = v
        return self._cache['DescendantFonts']


class CIDFontView(object):
    """CIDFontType0/2 descendant font (reference FontCID0/2)."""

    def __init__(self, doc, d, ref):
        self._doc = doc
        self._d = d
        self.oid = ref
        self.Subtype = d.get('Subtype')
        self.BaseFont = d.get('BaseFont')
        self.DW = d.get('DW')
        self._cache = {}

    @property
    def W(self):
        if 'W' not in self._cache:
            v = self._d.get('W')
            if isinstance(v, Ref):
                v = self._doc.resolve(v)
            self._cache['W'] = v
        return self._cache['W']

    @property
    def FontDescriptor(self):
        if 'FontDescriptor' not in self._cache:
            v = self._d.get('FontDescriptor')
            if isinstance(v, Ref):
                v = FontDescriptorView(self._doc, self._doc.resolve(v), v)
            self._cache['FontDescriptor'] = v
        return self._cache['FontDescriptor']


class FontEncodingView(object):
    """FontEncoding object: BaseEncoding + Differences.

    An indirect Differences value is unsupported (the reference's
    _DynamicLoader falls through to NotImplementedError)."""

    def __init__(self, doc, d, ref):
        self._doc = doc
        self.oid = ref
        if not isinstance(d, dict):
            raise PdfError("FontEncoding object is not a dictionary")
        self.BaseEncoding = d.get('BaseEncoding')
        diffs = d.get('Differences')
        if isinstance(diffs, Ref):
            raise PdfError("Dynamic loader for FontEncoding indirect Differences not implemented")
        self.Differences = diffs


class FontDescriptorView(object):
    def __init__(self, doc, d, ref):
        self._doc = doc
        self._d = d
        self.oid = ref
        self._cache = {}

    @property
    def FontFile3(self):
        if 'FontFile3' not in self._cache:
            v = self._d.get('FontFile3')
            if isinstance(v, Ref):
                v = self._doc.get_stream(v)
            self._cache['FontFile3'] = v
        return self._cache['FontFile3']

    @property
    def FontFile2(self):
        # Reference parser/__init__.py:880 has `sefl.GetFontFile2` — the
        # FontFile2 path was never exercised and crashes; mirror that.
        raise PdfError("FontFile2 loader is broken in the reference (sefl typo)")


class GraphicsStateView(object):
    """ExtGState dictionary view: inline values returned as-is; indirect
    values unsupported (reference _DynamicLoader GraphicsState branch)."""

    _KEYS = ('LW', 'LC', 'LJ', 'ML', 'D', 'RI', 'OP', 'op', 'OPM', 'Font',
             'BG', 'BG2', 'UCR', 'UCR2', 'TR', 'TR2', 'HT', 'FL', 'SM',
             'SA', 'BM', 'SMask', 'CA', 'ca', 'AIS', 'TK')

    def __init__(self, doc, d, ref):
        self.oid = ref
        for k in self._KEYS:
            v = d.get(k)
            if isinstance(v, Ref):
                raise PdfError("Dynamic loader for GraphicsState indirect '%s' not implemented" % k)
            setattr(self, k, v)


class XObjectView(object):
    """Form/Image XObject: stream + (for forms) Resources resolution.

    Indirect Resources → ResourceView; inline Resources → the raw dict,
    which later fails on font lookup exactly like the reference."""

    def __init__(self, doc, so, subtype, ref):
        self._doc = doc
        self._so = so
        self.Subtype = subtype
        self.oid = ref
        self._cache = {}

    @property
    def Stream(self):
        return self._so.stream

    @property
    def Resources(self):
        if 'Resources' not in self._cache:
            v = self._so.dict.get('Resources')
            if isinstance(v, Ref):
                d = self._doc.resolve(v)
                if isinstance(d, dict):
                    v = ResourceView(self._doc, d, v)
                else:
                    v = d
            self._cache['Resources'] = v
        return self._cache['Resources']
