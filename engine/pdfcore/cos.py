"""COS token-stream → Python value parsing and the core value types.

Replaces the reference's 7-pass token consolidator + token-tree converter
(pypdfproc/parser/pdf.py:217-490 and parser/__init__.py:1225-1309; SURVEY.md
P2/R12) with a single recursive-descent pass that produces Python values
directly.  Semantics preserved:

* ``INT INT R`` consolidates to an indirect reference via a left-to-right
  3-token window (same grouping as the reference's global Indirect pass).
* Dictionaries with an odd number of inner values get a trailing null
  (reference pdf.py:373-379).
* NAME and LIT both convert to plain ``str``; HEXSTRING keeps a wrapper
  (the hex digits, brackets stripped); true/false/null → True/False/None.
* Unknown token types raise, like TokenHelpers.Convert's ValueError.

Value model: dict, list, int, float, str (names & literal strings),
Hexstring, Ref, bool, None, StreamObj (dict + raw stream payload).
"""


__all__ = ['Ref', 'Hexstring', 'StreamObj', 'PdfError', 'parse_values',
           'parse_object_body', 'parse_xref_table_tokens', 'parse_trailer_tokens']


class PdfError(Exception):
    """Generic structural error while interpreting a PDF."""


class Ref(object):
    """Indirect object reference (objid, generation)."""
    __slots__ = ('objid', 'generation')

    def __init__(self, objid, generation):
        self.objid = objid
        self.generation = generation

    def key(self):
        return (self.objid, self.generation)

    def __eq__(self, o):
        return isinstance(o, Ref) and o.objid == self.objid and o.generation == self.generation

    def __hash__(self):
        return hash((self.objid, self.generation))

    def __repr__(self):
        return "Ref(%d,%d)" % (self.objid, self.generation)


class Hexstring(object):
    """Hex string value; ``string`` holds the raw hex digits (no brackets)."""
    __slots__ = ('string',)

    def __init__(self, string):
        self.string = string

    def __eq__(self, o):
        return isinstance(o, Hexstring) and o.string == self.string

    def __repr__(self):
        return "Hexstring(%r)" % (self.string,)


class StreamObj(object):
    """A stream object: its dictionary plus the raw (undecoded) payload.

    ``stream`` decodes lazily on first access and caches, supporting only
    FlateDecode (predictor none / PNG-Up), mirroring the reference's
    PDFStreamBase.Stream (pypdfproc/pdf.py:454-477; SURVEY.md D3).
    """
    __slots__ = ('dict', 'raw', '_decoded', 'cmapper')

    def __init__(self, d, raw):
        self.dict = d
        self.raw = raw
        self._decoded = None
        self.cmapper = None  # cache slot for ToUnicode CMap mappers (F1)

    @property
    def stream(self):
        if self._decoded is None:
            from .filters import decode_stream
            self._decoded = decode_stream(self.dict, self.raw)
        return self._decoded

    def __repr__(self):
        return "StreamObj(%r, %d raw chars)" % (self.dict, len(self.raw))


def _parse_one(toks, i, n):
    """Parse the value starting at ``toks[i]`` → (value, next index).
    Tokens are ``(type, value, pos)`` tuples."""
    tt, v, _ = toks[i]
    if tt == 'NAME':
        return v, i + 1
    if tt == 'INT':
        if i + 2 < n and toks[i + 1][0] == 'INT' and toks[i + 2][0] == 'indirect':
            return Ref(v, toks[i + 1][1]), i + 3
        return v, i + 1
    if tt == 'DICT_START':
        vals = []
        i += 1
        while i < n:
            t = toks[i]
            if t[0] == 'NAME':       # most dict entries: inline the scalar
                vals.append(t[1])
                i += 1
                continue
            if t[0] == 'DICT_END':
                break
            v, i = _parse_one(toks, i, n)
            vals.append(v)
        if i >= n:
            raise PdfError("Did not find end of dictionary")
        if len(vals) % 2 != 0:
            vals.append(None)  # odd-length padding (reference pdf.py:373-379)
        return dict(zip(vals[0::2], vals[1::2])), i + 1
    if tt == 'FLOAT' or tt == 'LIT':
        return v, i + 1
    if tt == 'ARR_START':
        arr = []
        i += 1
        while i < n and toks[i][0] != 'ARR_END':
            v, i = _parse_one(toks, i, n)
            arr.append(v)
        if i >= n:
            raise PdfError("Did not find end of array")
        return arr, i + 1
    if tt == 'HEXSTRING':
        return Hexstring(v), i + 1
    if tt == 'true':
        return True, i + 1
    if tt == 'false':
        return False, i + 1
    if tt == 'NULL':
        return None, i + 1
    raise PdfError("Unknown token type '%s'" % tt)


def parse_values(toks):
    """Parse a flat token slice into a list of Python values."""
    out = []
    i = 0
    n = len(toks)
    while i < n:
        v, i = _parse_one(toks, i, n)
        out.append(v)
    return out


def parse_object_body(toks):
    """Parse ``INT INT obj <body> endobj`` tokens → (objid, gen, values).

    A stream body yields a single StreamObj value (dict + raw payload),
    matching the reference's _ParseStream handler shape.  ``endstream``
    tokens are dropped, as in the consolidator's Stream pass.
    """
    if len(toks) < 3 or toks[0][0] != 'INT' or toks[1][0] != 'INT' or toks[2][0] != 'obj':
        raise PdfError("Expected 'INT INT obj' at object start, got %s" %
                       [t[0] for t in toks[:3]])
    objid = toks[0][1]
    gen = toks[1][1]
    body = [t for t in toks[3:] if t[0] != 'endstream']
    if body and body[-1][0] == 'endobj':
        body = body[:-1]
    # Split out stream tokens: values ... 'stream' pairing with preceding dict
    vals = []
    i = 0
    n = len(body)
    while i < n:
        if body[i][0] == 'stream':
            if not vals or not isinstance(vals[-1], dict):
                raise PdfError("stream token without preceding dictionary")
            d = vals.pop()
            vals.append(StreamObj(d, body[i][1]))
            i += 1
        else:
            v, i = _parse_one(body, i, n)
            vals.append(v)
    return objid, gen, vals


def parse_xref_table_tokens(toks):
    """Parse plaintext xref-table tokens → list of row tuples.

    Mirrors ConsolidateTokensClass.Xref + Convert_XRef (reference
    pdf.py:241-281, parser/__init__.py:1266-1278): a single subsection
    ``xref INT INT`` followed by ``numobjs`` rows of ``INT INT (n|f)``;
    tokens past the first subsection are ignored.  Returns a list of
    ``(objid, offset, generation, 'n'|'f')`` tuples.
    """
    if not toks or toks[0][0] != 'xref':
        raise PdfError("Expected xref token")
    if toks[1][0] != 'INT' or toks[2][0] != 'INT':
        raise PdfError("Expected two INTs after xref start")
    firstobj = toks[1][1]
    numobjs = toks[2][1]
    rows = []
    base = 3
    for cnt in range(numobjs):
        i = base + cnt * 3
        if toks[i][0] != 'INT' or toks[i + 1][0] != 'INT':
            raise PdfError("Expected INT INT for xref row %d" % cnt)
        kind = toks[i + 2][0]
        if kind == 'xref_inuse':
            flag = 'n'
        elif kind == 'xref_free':
            flag = 'f'
        else:
            raise PdfError("Expected xref_free or xref_inuse for row %d, found %s" % (cnt, kind))
        rows.append((firstobj + cnt, toks[i][1], toks[i + 1][1], flag))
    return rows


def parse_trailer_tokens(toks):
    """Parse ``trailer <<dict>> startxref INT %%EOF`` tokens.

    Returns (trailer_dict, startxref_offset).  Mirrors the consolidator's
    Trailer pass + Convert_Trailer (reference pdf.py:433-451,
    parser/__init__.py:1281-1287).
    """
    i = 0
    n = len(toks)
    while i < n and toks[i][0] != 'trailer':
        i += 1
    if i >= n:
        raise PdfError("Expected trailer token")
    i += 1
    d, i = _parse_one(toks, i, n)
    if not isinstance(d, dict):
        raise PdfError("Expected dictionary after trailer")
    if i >= n or toks[i][0] != 'xref_start':
        raise PdfError("Expected startxref after trailer dictionary")
    if toks[i + 1][0] != 'INT':
        raise PdfError("Expected INT after startxref")
    return d, toks[i + 1][1]
