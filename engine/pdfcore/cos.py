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

``parse_object_at`` and ``parse_trailer_text`` are one-pass fast paths:
they split the text at whitespace once its delimiters are spaced and fold
the pieces straight into values, with a list stack for ``<<`` and ``[``,
and make no token tuples.  On any shape they cannot vouch for they return
None, and the caller takes the token path (``scan_cos`` + the parsers
below), which raises every error.
"""

import re

from .lexers import _NUMBER_START

__all__ = ['Ref', 'Hexstring', 'StreamObj', 'PdfError', 'BudgetExceeded',
           'parse_values', 'parse_object_body', 'parse_object_rest',
           'parse_xref_table_tokens', 'parse_trailer_tokens', 'split_tokens',
           'number', 'fold_tokens', 'parse_object_at', 'parse_trailer_text']


class PdfError(Exception):
    """Generic structural error while interpreting a PDF."""


class BudgetExceeded(Exception):
    """A document needs more work than a fixed budget allows
    (``filters.MAX_INFLATE``, ``extract.MAX_RENDERED_OPS``).  It ends the
    whole document, not one page: the turn fails and the job goes on."""


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
    return toks[0][1], toks[1][1], parse_object_rest(toks, 3, [])


def parse_object_rest(toks, i, vals):
    """Parse the object tokens ``toks[i:]`` onto ``vals`` and return it.
    ``vals`` holds the values of ``toks[3:i]``: none, or those of a
    ``parse_object_body`` call on ``toks[:i]`` that ended before a
    ``stream`` token, which is then not parsed again."""
    body = [t for t in toks[i:] if t[0] != 'endstream']
    if body and body[-1][0] == 'endobj':
        body = body[:-1]
    # Split out stream tokens: values ... 'stream' pairing with preceding dict
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
    return vals


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


# ---------------------------------------------------------------------------
# One-pass fast paths: split at whitespace, fold into values

# A character on which splitting at whitespace could give other tokens
# than the lexer: a paren or % (literal strings and comments), whitespace
# that str.split knows and the lexer does not, or anything past latin-1.
_UNSPLITTABLE = re.compile(r'[()%\x0b\x0c\x1c-\x1f\x85\xa0\u0100-\U0010ffff]')


def split_tokens(data, pos, end):
    """The COS tokens of ``data[pos:end]`` as strings, or None where the
    split could differ from the lexer's tokens.

    Outside literal strings and comments no token holds a delimiter, so
    once ``/``, ``[``, ``]``, ``<<`` and ``>>`` are spaced, every token is
    one whitespace-separated piece.  A region with a character of
    ``_UNSPLITTABLE``, a ``<`` or ``>`` outside a pair (a hex string) or a
    ``/`` that starts no name is refused.  ``fold_tokens`` refuses any
    piece that is not one token as the lexer reads it."""
    if _UNSPLITTABLE.search(data, pos, end):
        return None
    text = data[pos:end]
    if text.count('<') != 2 * text.count('<<') or text.count('>') != 2 * text.count('>>'):
        return None
    toks = text.replace('/', ' /').replace('[', ' [ ').replace(']', ' ] ') \
        .replace('<<', ' << ').replace('>>', ' >> ').split()
    return None if '/' in toks else toks


# int() of a token costs as much as the rest of its fold; the small ones,
# most of the numbers in objects and content streams, are looked up.
SMALL_INTS = {str(i): i for i in range(-999, 1000)}


def number(tok):
    """The INT or FLOAT value of a token that starts with a sign, digit
    or dot, or None if the lexer would not read it as one number (a FLOAT
    with no digit is the lexer's error)."""
    body = tok[1:] if tok[0] in '+-' else tok
    if body.isdecimal():
        return int(tok)
    a, dot, b = body.partition('.')
    if dot and (a or b) and (not a or a.isdecimal()) and (not b or b.isdecimal()):
        return float(tok)
    return None


def fold_tokens(toks):
    """Values of ``split_tokens`` pieces, equal to ``parse_values`` of the
    lexer's tokens, or None when the fold cannot vouch for them: a piece
    that is not a name, number, bracket, ``true``/``false``/``null`` or
    an ``R`` after ``INT INT``; an unbalanced bracket; or a dictionary key
    that cannot be hashed."""
    top = []
    push = top.append
    stack = []          # (enclosing list, closing token) per open bracket
    for tok in toks:
        c = tok[0]
        if c == '/':
            push(tok[1:])
        elif (v := SMALL_INTS.get(tok)) is not None:
            push(v)
        elif tok == 'R':
            # Only INT tokens make int values, and any other token since
            # would have left another value last, so two ints last here
            # mean the two tokens before were INT INT.
            if len(top) < 2 or type(top[-1]) is not int or type(top[-2]) is not int:
                return None
            gen = top.pop()
            top[-1] = Ref(top[-1], gen)
        elif tok == '<<' or tok == '[':
            stack.append((top, '>>' if tok == '<<' else ']'))
            top = []
            push = top.append
        elif tok == '>>' or tok == ']':
            if not stack or stack[-1][1] != tok:
                return None
            inner = top
            top = stack.pop()[0]
            push = top.append
            if tok == '>>':
                if len(inner) % 2:
                    inner.append(None)  # odd-length padding, as _parse_one
                pairs = iter(inner)
                try:
                    inner = dict(zip(pairs, pairs))
                except TypeError:
                    return None
            push(inner)
        elif c in _NUMBER_START:
            v = number(tok)
            if v is None:
                return None
            push(v)
        elif tok == 'true':
            push(True)
        elif tok == 'false':
            push(False)
        elif tok == 'null':
            push(None)
        else:
            return None
    return None if stack else top


def parse_object_at(data, pos, stream_length):
    """The values of the object at ``data[pos]``, as ``parse_object_body``
    gives them for ``scan_cos(data, pos, 'endobj', streamlength)``, or
    None when this fast path cannot vouch for it.

    It takes ``INT INT obj``, values, then ``endobj``; or one dictionary
    then ``stream``, the payload and ``[endstream] endobj``.
    ``stream_length(values)`` gets the values before ``stream`` and
    returns /Length; an error it raises is the token path's error too,
    which reaches the same call with the same values."""
    e = data.find('endobj', pos)
    if e < 0:
        return None
    s = data.find('stream', pos, e)
    end = s + 6 if s >= 0 else e + 6
    toks = split_tokens(data, pos, end)
    if (toks is None or len(toks) < 4 or toks[2] != 'obj'
            or not toks[0].isdecimal() or not toks[1].isdecimal()):
        return None
    vals = fold_tokens(toks[3:-1])
    if vals is None:
        return None
    last = toks[-1]
    if last == 'endobj':
        return vals
    if last != 'stream' or len(vals) != 1 or type(vals[0]) is not dict:
        return None
    length = stream_length(vals)
    # The payload and its CR/LF skips, as ``scan_cos``; anything that
    # would index past the end is left to it.
    n = len(data)
    p = end + (end < n and data[end] == '\r')
    if p >= n:
        return None
    p += data[p] == '\n'
    if type(length) is not int or length < 0 or p + length >= n:
        return None
    raw = data[p:p + length]
    p += length
    p += data[p] == '\r'
    if p >= n:
        return None
    p += data[p] == '\n'
    e = data.find('endobj', p)
    if e < 0 or _UNSPLITTABLE.search(data, p, e) \
            or data[p:e].split() not in (['endstream'], []):
        return None
    return [StreamObj(vals[0], raw)]


def parse_trailer_text(text):
    """``(trailer dict, startxref offset)`` of ``trailer <<…>> startxref
    INT %%EOF``, as ``parse_trailer_tokens(scan_cos(text))`` gives, or
    None for any other shape."""
    if not text.endswith('%%EOF'):
        return None
    toks = split_tokens(text, 0, len(text) - 5)
    if (toks is None or len(toks) < 4 or toks[0] != 'trailer'
            or toks[-2] != 'startxref' or not toks[-1].isdecimal()):
        return None
    vals = fold_tokens(toks[1:-2])
    if vals is None or len(vals) != 1 or type(vals[0]) is not dict:
        return None
    return vals[0], int(toks[-1])
