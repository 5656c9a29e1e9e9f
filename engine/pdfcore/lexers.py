"""Hand-rolled scanners for the three token languages of a PDF file.

Re-derives (from scratch, no lexer framework) the exact tokenization
behavior of the reference's PLY-based lexers:

* COS object language   — reference: pypdfproc/parser/pdf.py:7-214 (P1)
* content-stream language — reference: pypdfproc/parser/text.py:7-341 (P3)
* CMap programs          — reference: pypdfproc/parser/cmap.py:7-175 (P5)

PLY matching discipline reproduced here: a single alternation tried at the
current position, function rules first (in definition order), then literal
rules in order of decreasing pattern length; first alternative that matches
wins (NOT overall longest match).  This ordering is what makes e.g.
``startxref`` win over ``xref`` and ``scn`` over ``sc`` over ``s``.

All scanning is over latin-1-decoded ``str`` data.  A token is a plain
``(type, value, pos)`` tuple; ``pos`` is the index into that string (the
reference's ``lexpos``), which the object-stream indexer relies on.

Each language is lexed by one ``match`` loop, token by token; it also
raises every lex error.  Above the COS and content loops sit the
one-pass parsers (``cos.parse_object_at``, ``content.content_ops``).

Trade-off: a whole-region regex tier once sat between the two, and no
workload needed it.  ``unique_docs`` never reaches ``scan_cos`` or
``scan_content``, and the 25 ``boilerplate`` payloads, with and without
spans, took 10.1 ms per 25 documents without it and 10.0 ms with it
(1-vCPU VM, process time, median of 5).  A 46,000-token object stream
lexes in 93 ms instead of 64 ms; if such streams become traffic, their
fast path belongs in a one-pass object-stream parser, not in a second
lexer tier.
"""

import re

__all__ = [
    'PdfLexError', 'NeedStreamLengthError',
    'scan_cos', 'scan_content', 'scan_cmap',
]


class PdfLexError(Exception):
    """Unlexable character (reference raises a bare Exception at t_error)."""


class NeedStreamLengthError(Exception):
    """Hit a ``stream`` keyword without knowing /Length.

    Carries the tokens seen so far (reference pypdfproc/parser/pdf.py:
    119-151, whose caller reads /Length from them and re-scans).  A caller
    that can resolve /Length passes ``scan_cos`` a callable instead, and
    the scan goes on without lexing the dictionary twice.
    """

    def __init__(self, message, tokens):
        Exception.__init__(self, message)
        self.tokens = tokens


def _master(func_rules, literal_rules, skip_ws=False):
    """Build one alternation regex in PLY order → (regex, group names).

    ``func_rules``: list of (name, pattern) in definition order.
    ``literal_rules``: dict name -> literal regex pattern; sorted by
    decreasing pattern length (ties can't conflict: distinct literals).
    ``skip_ws``: prefix an ungrouped ``[\t \r\n]*`` so one match skips
    the whitespace before a token and lexes the token; the token spans
    its own group.  No other rule can start with whitespace, so the
    tokens are unchanged.  Trailing whitespace, or whitespace before an
    unlexable character, backtracks into the WS rule, so a lex error
    still names the bad character's position.
    Every alternative is one plain group, so the scanners dispatch on
    ``m.lastindex``; the returned list maps it to the rule's name.
    """
    parts = ["(?P<%s>%s)" % (n, p) for n, p in func_rules]
    lits = sorted(literal_rules.items(), key=lambda kv: len(kv[1]), reverse=True)
    parts += ["(?P<%s>%s)" % (n, p) for n, p in lits]
    if skip_ws:
        regex = re.compile(r"[\t \r\n]*(?:%s)" % "|".join(parts))
    else:
        regex = re.compile("|".join(parts))
    names = [None] * (len(regex.groupindex) + 1)
    for n, i in regex.groupindex.items():
        names[i] = n
    return regex, names


def _keywords(literal_rules, *special):
    """Keyword text → token type, for the literal rules other than
    ``special`` ones (the one-pass content parser's operator table)."""
    return {re.sub(r'\\(.)', r'\1', p): n for n, p in literal_rules.items()
            if n not in special}


_NUMBER_START = frozenset('0123456789+-.')


# ---------------------------------------------------------------------------
# COS object language (reference parser/pdf.py)

_COS_FUNCS = [
    ('EOF', r'%%EOF'),
    ('COMMENT', r'%[^\r\n]+'),
    ('FLOAT', r'[-+]?\d*\.\d*'),
    ('INT', r'[-+]?\d+'),
    ('NAME', r'/[^\(\)\<\>\[\]\/ \t\r\n]+'),
    ('HEXSTRING', r'\<(?:[0-9A-Fa-f]+)\>'),
    ('WS', r'[\t \r\n]+'),
]

_COS_LITERALS = {
    'DICT_START': r'\<\<', 'DICT_END': r'\>\>',
    'ARR_START': r'\[', 'ARR_END': r'\]',
    'LIT_START': r'\(', 'LIT_END': r'\)',
    'true': r'true', 'false': r'false', 'NULL': r'null',
    'obj': r'obj', 'endobj': r'endobj',
    'stream': r'stream', 'endstream': r'endstream',
    'trailer': r'trailer', 'xref': r'xref', 'xref_start': r'startxref',
    'xref_free': r'f', 'xref_inuse': r'n', 'indirect': r'R',
}

_COS_RE, _COS_IDX = _master(_COS_FUNCS, _COS_LITERALS, skip_ws=True)


def _scan_literal_simple(data, pos):
    """Balanced-paren literal scan with naive prev-char escape check.

    Mirrors reference parser/pdf.py:173-196 (and cmap.py): a paren is
    escaped iff the immediately preceding char is a backslash (no parity
    counting).  Returns (value, newpos); value has \\( and \\) unescaped.
    A literal with no ``(`` or ``\\`` before its first ``)`` ends there.
    """
    end = data.find(')', pos)
    if end >= 0 and data.find('(', pos, end) < 0 and data.find('\\', pos, end) < 0:
        return data[pos:end], end + 1
    cnt = 1
    start = pos
    n = len(data)
    while cnt > 0:
        if pos >= n:
            raise PdfLexError("unterminated literal string")
        c = data[pos]
        if c == '(' and data[pos - 1] != '\\':
            cnt += 1
        elif c == ')' and data[pos - 1] != '\\':
            cnt -= 1
        pos += 1
    val = data[start:pos - 1]
    return val.replace("\\(", "(").replace("\\)", ")"), pos


def _scan_literal_parity(data, pos):
    """Balanced-paren literal scan with backslash-parity escape check.

    Mirrors reference parser/text.py:294-333 (content streams only).  A
    literal with no ``(`` or ``\\`` before its first ``)`` ends there.
    """
    end = data.find(')', pos)
    if end >= 0 and data.find('(', pos, end) < 0 and data.find('\\', pos, end) < 0:
        return data[pos:end], end + 1
    cnt = 1
    start = pos
    n = len(data)
    while cnt > 0:
        if pos >= n:
            raise PdfLexError("unterminated literal string")
        c = data[pos]
        if c in ('(', ')'):
            backcnt = 0
            i = pos - 1
            while i >= 0 and data[i] == '\\':
                backcnt += 1
                i -= 1
            if backcnt % 2 == 0:
                if c == '(':
                    cnt += 1
                else:
                    cnt -= 1
        pos += 1
    val = data[start:pos - 1]
    return val.replace("\\(", "(").replace("\\)", ")"), pos


_G = _COS_RE.groupindex
_C_INT, _C_NAME, _C_WS = _G['INT'], _G['NAME'], _G['WS']
_C_FLOAT, _C_HEX, _C_COMMENT = _G['FLOAT'], _G['HEXSTRING'], _G['COMMENT']
_C_LIT, _C_STREAM = _G['LIT_START'], _G['stream']
# stoptoken type → the group that lexes it
_COS_STOP = dict(_G, LIT=_C_LIT)


def scan_cos(data, pos=None, stoptoken=None, streamlength=None):
    """Tokenize COS text, mirroring reference TokenizeString (pdf.py:126-214).

    * ``stream`` keyword: skips one optional CR and one optional LF, yanks
      ``streamlength`` chars as the token value, skips trailing CR/LF.
      ``streamlength`` is an int, or a callable that gets the tokens seen
      so far and returns the length.  If it is None, raises
      NeedStreamLengthError carrying the tokens seen so far.
    * literal strings: balanced scan (naive escape check), parens unescaped.
    * whitespace and nothing else is dropped; unknown chars raise.
    * the scan ends after the first token of type ``stoptoken``.
    """
    p = pos or 0
    n = len(data)
    tokens = []
    match = _COS_RE.match
    names = _COS_IDX
    append = tokens.append
    stop = _COS_STOP.get(stoptoken)
    while p < n:
        m = match(data, p)
        if m is None:
            raise PdfLexError("Bad character ord='%d' at pos %d" % (ord(data[p]), p))
        gi = m.lastindex
        start, p = m.span(gi)
        if gi == _C_INT:
            append(('INT', int(data[start:p]), start))
        elif gi == _C_NAME:
            append(('NAME', data[start + 1:p], start))
        elif gi == _C_WS:
            continue
        elif gi == _C_FLOAT:
            append(('FLOAT', float(data[start:p]), start))
        elif gi == _C_LIT:
            val, p = _scan_literal_simple(data, p)
            append(('LIT', val, start))
        elif gi == _C_HEX:
            append(('HEXSTRING', data[start + 1:p - 1], start))
        elif gi == _C_COMMENT:
            append(('COMMENT', data[start + 1:p], start))
        elif gi == _C_STREAM:
            if streamlength is None:
                raise NeedStreamLengthError(
                    "Ran into a stream without a stream length, cannot process stream",
                    tokens)
            length = streamlength(tokens) if callable(streamlength) else streamlength
            # leading CR then LF skip (reference pdf.py:154-157)
            if data[p] == '\r':
                p += 1
            if data[p] == '\n':
                p += 1
            sval = data[p:p + length]
            p += length
            # trailing CR then LF skip (pdf.py:166-169); IndexError at EOF
            # mirrors the reference's behavior on truncated streams
            if data[p] == '\r':
                p += 1
            if data[p] == '\n':
                p += 1
            append(('stream', sval, start))
        else:
            append((names[gi], data[start:p], start))
        if gi == stop:
            break
    return tokens


# ---------------------------------------------------------------------------
# Content-stream language (reference parser/text.py)

_TEXT_FUNCS = [
    ('FLOAT', r'[-+]?\d*\.\d*'),
    ('INT', r'[-+]?\d+'),
    ('NAME', r'/[^\(\)\<\>\[\]\/ \t\r\n]+'),
    ('HEXSTRING', r'\<(?:[0-9A-Fa-f]+)\>'),
    ('WS', r'[\t \r\n]+'),
]

_TEXT_LITERALS = {
    'DICT_START': r'\<\<', 'DICT_END': r'\>\>',
    'ARR_START': r'\[', 'ARR_END': r'\]',
    'LIT_START': r'\(', 'LIT_END': r'\)',
    'BT': r'BT', 'ET': r'ET',
    'Tc': r'Tc', 'Tw': r'Tw', 'Tz': r'Tz', 'TL': r'TL', 'Tf': r'Tf',
    'Tr': r'Tr', 'Ts': r'Ts', 'Tk': r'Tk',
    'Td': r'Td', 'TD': r'TD', 'Tm': r'Tm',
    'Tstar': r'T\*', 'TstarTj': r"\'", 'TwTcTstarTj': r'"',
    'Tj': r'Tj', 'TJ': r'TJ',
    'CS': r'CS', 'cs': r'cs', 'SCN': r'SCN', 'SC': r'SC',
    'scn': r'scn', 'sc': r'sc',
    'G': r'G', 'g': r'g', 'RG': r'RG', 'rg': r'rg', 'K': r'K', 'k': r'k',
    'MP': r'MP', 'DP': r'DP', 'BMC': r'BMC', 'BDC': r'BDC', 'EMC': r'EMC',
    'q': r'q', 'Q': r'Q', 'cm': r'cm', 'w': r'w', 'j': r'j', 'J': r'J',
    'M': r'M', 'd': r'd', 'ri': r'ri', 'i': r'i', 'gs': r'gs',
    'm': r'm', 'l': r'l', 'c': r'c', 'v': r'v', 'y': r'y', 'h': r'h',
    're': r're',
    'S': r'S', 's': r's', 'f': r'f', 'F': r'F', 'fstar': r'f\*',
    'B': r'B', 'Bstar': r'B\*', 'b': r'b', 'bstar': r'b\*', 'n': r'n',
    'W': r'W', 'Wstar': r'W\*',
    'Do': r'Do',
}

_TEXT_RE, _TEXT_IDX = _master(_TEXT_FUNCS, _TEXT_LITERALS, skip_ws=True)
_TEXT_KW = _keywords(_TEXT_LITERALS, 'LIT_START')
_G = _TEXT_RE.groupindex
_T_INT, _T_NAME, _T_WS = _G['INT'], _G['NAME'], _G['WS']
_T_FLOAT, _T_HEX, _T_LIT = _G['FLOAT'], _G['HEXSTRING'], _G['LIT_START']


def scan_content(data):
    """Tokenize a content-stream program (reference text.py:273-341).

    Literal strings use the backslash-parity escape check.  There is no
    COMMENT rule: a ``%`` in a content stream is a lex error, as in the
    reference.
    """
    tokens = []
    p = 0
    n = len(data)
    match = _TEXT_RE.match
    names = _TEXT_IDX
    append = tokens.append
    while p < n:
        m = match(data, p)
        if m is None:
            raise PdfLexError("Bad character ord='%d' at pos %d" % (ord(data[p]), p))
        gi = m.lastindex
        start, p = m.span(gi)
        if gi == _T_INT:
            append(('INT', int(data[start:p]), start))
        elif gi == _T_LIT:
            val, p = _scan_literal_parity(data, p)
            append(('LIT', val, start))
        elif gi == _T_NAME:
            append(('NAME', data[start + 1:p], start))
        elif gi == _T_FLOAT:
            append(('FLOAT', float(data[start:p]), start))
        elif gi == _T_WS:
            continue
        elif gi == _T_HEX:
            append(('HEXSTRING', data[start + 1:p - 1], start))
        else:
            append((names[gi], data[start:p], start))
    return tokens


# ---------------------------------------------------------------------------
# CMap programs (reference parser/cmap.py)

_CMAP_FUNCS = [
    ('FLOAT', r'[-+]?\d*\.\d*'),
    ('INT', r'[-+]?\d+'),
    ('NAME', r'/[^\(\)\<\>\[\]\/ \t\r\n]+'),
    ('WS', r'[\t \r\n]+'),
    ('CODE', r'\<[0-9A-Fa-f]+\>'),
    ('COMMENT', r'%[^\r\n]*'),
]

_CMAP_LITERALS = {
    'DICT_START': r'\<\<', 'DICT_END': r'\>\>',
    'ARR_START': r'\[', 'ARR_END': r'\]',
    'LIT_START': r'\(', 'LIT_END': r'\)',
    'findresource': r'findresource', 'dict': r'dict', 'def': r'def',
    'cmap': r'cmap', 'CMapName': r'CMapName', 'currentdict': r'currentdict',
    'defineresource': r'defineresource', 'pop': r'pop', 'dup': r'dup',
    'begin': r'begin', 'begincmp': r'begincmp',
    'beginbfchar': r'beginbfchar', 'beginbfrange': r'beginbfrange',
    'begincidrange': r'begincidrange',
    'begincodespacerange': r'begincodespacerange',
    'end': r'end', 'endcmp': r'endcmp',
    'endbfchar': r'endbfchar', 'endbfrange': r'endbfrange',
    'endcidrange': r'endcidrange', 'endcodespacerange': r'endcodespacerange',
}

_CMAP_RE, _ = _master(_CMAP_FUNCS, _CMAP_LITERALS)


def scan_cmap(data):
    """Tokenize a CMap program (reference cmap.py:130-175).

    Note: like the reference, there is no rule matching ``usecmap`` — CMaps
    that use it (e.g. Identity-V) are a lex error.
    """
    tokens = []
    p = 0
    n = len(data)
    match = _CMAP_RE.match
    while p < n:
        m = match(data, p)
        if m is None:
            raise PdfLexError("Bad character ord='%d' at pos %d" % (ord(data[p]), p))
        typ = m.lastgroup
        p2 = m.end()
        if typ == 'WS':
            p = p2
            continue
        start = p
        p = p2
        if typ == 'INT':
            tok = ('INT', int(m.group(0)), start)
        elif typ == 'FLOAT':
            tok = ('FLOAT', float(m.group(0)), start)
        elif typ == 'NAME':
            tok = ('NAME', m.group(0)[1:], start)
        elif typ == 'CODE':
            tok = ('CODE', int(m.group(0)[1:-1], 16), start)
        elif typ == 'COMMENT':
            tok = ('COMMENT', m.group(0)[1:], start)
        elif typ == 'LIT_START':
            val, p = _scan_literal_simple(data, p)
            tok = ('LIT', val, start)
        else:
            tok = (typ, m.group(0), start)
        tokens.append(tok)
    return tokens
