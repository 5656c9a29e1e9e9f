"""Content-stream operator assembly and the page interpreter state machine.

Re-derivation of:

* postfix→prefix operator assembly — reference pypdfproc/parser/text.py:
  343-621 (SURVEY.md P4): each operator token swallows its operands per a
  fixed arity table (0/1/2/3/4/6, TJ-array, dash-array ``d``, variadic
  SC/sc and SCN/scn, and the ``BDC`` inline-dictionary special case), with
  the reference's gap check (an operand not consumed by the next operator
  raises).
* graphics/text state machine — reference parser/state.py (I4-I9): the
  3×3 row-vector matrix algebra, ``Td``/``TD``/``T*`` positioning, the
  ``do_Tj`` advance math (exact float expression order preserved), and the
  q/Q state stack.
* token dispatch loop — reference __init__.py:344-543 (I2): the same
  handled-operator set, the same NotImplementedError surface for gs
  entries, and ValueError for unhandled operators.

Cloned quirks (SURVEY.md §7.3):

* ``set Tm`` ALWAYS also sets Tlm (reference state.py:364) — glyph
  advances move the "line matrix" too, so Td is relative to the advanced
  position.  Spec-incorrect, behavior-exact.
* The glyph position matrix uses ``Tr`` (render mode) where the spec wants
  rise ``Ts`` (reference __init__.py:521).
* ``do_Tstar`` passes +TL (reference state.py:415-416).
"""

import re

from .cos import PdfError, SMALL_INTS, number
from .lexers import scan_content, _TEXT_KW, _NUMBER_START

__all__ = ['postfix_to_prefix', 'tokenize_content', 'content_ops',
           'Mat', 'GraphicsState', 'TextState', 'StateStack']


# operator → the fixed number of operands it takes
_ARITY = {}
for _n, _ops in ((0, ('q', 'Q', 'h', 'S', 's', 'F', 'f', 'fstar', 'B', 'B*',
                      'b', 'b*', 'n', 'W', 'Wstar', 'BT', 'ET', 'Tstar', 'EMC')),
                 (1, ('w', 'J', 'j', 'M', 'ri', 'i', 'gs', 'CS', 'cs', 'G', 'g',
                      'Do', 'Tc', 'Tw', 'Tz', 'TL', 'Tr', 'Ts', 'Tj', 'TstarTj',
                      'MP', 'BMC')),
                 (2, ('m', 'l', 'Tf', 'Td', 'TD', 'DP', 'BDC')),
                 (3, ('RG', 'rg', 'TwTcTstarTj')),
                 (4, ('v', 'y', 're', 'K', 'k')),
                 (6, ('cm', 'c', 'Tm'))):
    for _op in _ops:
        _ARITY[_op] = _n
_OPERANDS = frozenset(('INT', 'FLOAT', 'ARR_START', 'ARR_END', 'DICT_START',
                       'DICT_END', 'NAME', 'LIT', 'HEXSTRING'))


def postfix_to_prefix(tokens):
    """Fold operand tokens into their operator (reference
    TokensPostfixToPrefix).  Returns {'tokens': [...], 'residual': [...]};
    each prefix token is an ``(op, operands)`` tuple: a tuple of operand
    tokens, or for a no-operand operator its own text."""
    ret = []
    append = ret.append
    lastidx = -1
    i = -1
    for t in tokens:
        i += 1
        tt = t[0]
        if tt in _OPERANDS:
            continue
        k = _ARITY.get(tt)

        if k == 0:
            append((tt, t[1]))
            if lastidx != i - 1:
                raise PdfError("Operator %s at %d skipped over operands" % (tt, i))
            lastidx = i

        elif k == 1:
            append((tt, (tokens[i - 1],)))
            if lastidx != i - 2:
                raise PdfError("Operator %s at %d skipped over operands" % (tt, i))
            lastidx = i

        elif tt == 'BDC' and tokens[i - 1][0] == 'DICT_END':
            normal_check = True
            j = i - 1
            while j > 0:
                if tokens[j][0] == 'DICT_START':
                    # NAME <<…>> BDC — collapse to (NAME, DICT)
                    dict_tok = ('DICT', tokens[j + 1:i - 1])
                    append((tt, (tokens[j - 1], dict_tok)))
                    if lastidx != j - 2:
                        raise PdfError("Operator BDC skipped over operands")
                    normal_check = False
                    break
                j -= 1
            if normal_check and lastidx != i - 3:
                raise PdfError("Operator %s at %d skipped over operands" % (tt, i))
            # the reference sets lastidx = i unconditionally here
            # (text.py:477), including after the BDC special case
            lastidx = i

        elif k is not None:
            append((tt, tuple(tokens[i - k:i])))
            if lastidx != i - k - 1:
                raise PdfError("Operator %s at %d skipped over operands" % (tt, i))
            lastidx = i

        elif tt == 'TJ':
            # one array operand: [ … ] TJ
            j = i - 1
            while j > 0:
                if tokens[j][0] == 'ARR_START':
                    append((tt, tuple(tokens[j + 1:i - 1])))
                    break
                j -= 1
            if lastidx != j - 1:
                raise PdfError("Operator TJ skipped over operands")
            lastidx = i

        elif tt == 'd':
            # dash: [ … ] phase d
            j = i - 2
            while j > 0:
                if tokens[j][0] == 'ARR_START':
                    append((tt, (list(tokens[j + 1:i - 2]), tokens[i - 1])))
                    break
                j -= 1
            if lastidx != j - 1:
                raise PdfError("Operator d skipped over operands")
            lastidx = i

        elif tt in ('SC', 'sc'):
            j = i - 1
            while j > 0:
                if tokens[j][0] in ('INT', 'FLOAT'):
                    j -= 1
                else:
                    j += 1
                    break
            append((tt, tuple(tokens[j:i])))
            if lastidx != j - 1:
                raise PdfError("Operator %s skipped over operands" % tt)
            lastidx = i

        elif tt in ('SCN', 'scn'):
            j = i - 1
            while j > 0:
                if tokens[j][0] in ('INT', 'FLOAT', 'LIT'):
                    j -= 1
                else:
                    j += 1
                    break
            append((tt, tuple(tokens[j:i])))
            if lastidx != j - 1:
                raise PdfError("Operator %s skipped over operands" % tt)
            lastidx = i

        else:
            raise PdfError("Unrecognized token type '%s' at %d" % (tt, i))

    return {'tokens': ret, 'residual': tokens[lastidx + 1:]}


def tokenize_content(txt):
    """Scan + prefix-assemble a content program (reference
    TextTokenizer.TokenizeString)."""
    return postfix_to_prefix(scan_content(txt))


# A literal string with no paren or backslash inside: the lexer's own
# one-token form.  Any other literal leaves a paren in the code around it.
_LITERAL = re.compile(r'\(([^()\\]*)\)')
# A character outside those literals on which the split fast path gives
# up: a ')' or backslash, '%' (a lex error), '<' or '>' (hex strings and
# dictionaries), whitespace that str.split knows and the lexer does not,
# or anything past latin-1.
_UNSPLITTABLE = re.compile(r'[)\\%<>\x0b\x0c\x1c-\x1f\x85\xa0\u0100-\U0010ffff]')
_ARR_START = ('ARR_START', '[', None)
_ARR_END = ('ARR_END', ']', None)
# keyword text → (operator, fixed operand count or None)
_KEYWORD_OPS = {text: (tt, _ARITY.get(tt)) for text, tt in _TEXT_KW.items()}
_SMALL_INT_TOKENS = {text: ('INT', v, None) for text, v in SMALL_INTS.items()}


def content_ops(txt):
    """The prefix operators of a content program, equal to
    ``tokenize_content(txt)['tokens']`` except that operand tokens made by
    the fast path carry no position (None; the renderer reads none).

    The fast path lexes and assembles in one pass: it cuts out the
    ``_LITERAL`` strings, splits the rest at whitespace once ``/``, ``[``
    and ``]`` are spaced, and folds the pieces into operators.  No other
    token holds a delimiter, so each piece is one token where the lexer
    reads it as one.  It gives up (and ``tokenize_content`` runs, raising
    every error) on any other paren, a character of ``_UNSPLITTABLE``, a
    ``/`` that starts no name, a piece that is not one number, name or
    keyword, an operator without exactly its operands, ``d``,
    ``SC``/``sc``, ``SCN``/``scn``, and a TJ array that is not plain or is
    the first operator (the reference drops that one)."""
    ops = _content_ops_fast(txt)
    return ops if ops is not None else tokenize_content(txt)['tokens']


def _content_ops_fast(txt):
    parts = _LITERAL.split(txt)
    lits = parts[1::2]
    code = ' ( '.join(parts[0::2])      # '(' marks where each literal was
    if code.count('(') != len(lits) or _UNSPLITTABLE.search(code):
        return None
    toks = code.replace('/', ' /').replace('[', ' [ ').replace(']', ' ] ').split()
    if '/' in toks:
        return None
    out = []
    append = out.append
    pending = []
    push = pending.append
    next_lit = iter(lits).__next__
    for tok in toks:
        t = _SMALL_INT_TOKENS.get(tok)
        if t is not None:
            push(t)
            continue
        c = tok[0]
        if c == '(':
            push(('LIT', next_lit(), None))
        elif c in _NUMBER_START:
            v = number(tok)
            if v is None:
                return None
            push(('INT' if type(v) is int else 'FLOAT', v, None))
        elif c == '/':
            push(('NAME', tok[1:], None))
        elif tok == '[':
            push(_ARR_START)
        elif tok == ']':
            push(_ARR_END)
        else:
            tt, k = _KEYWORD_OPS.get(tok, (None, None))
            if k is not None:
                if len(pending) != k:
                    return None
                append((tt, tuple(pending) if k else tok))
            elif tt == 'TJ':
                if (not out or len(pending) < 2 or pending[0] is not _ARR_START
                        or pending[-1] is not _ARR_END):
                    return None
                items = pending[1:-1]
                if _ARR_START in items or _ARR_END in items:
                    return None
                append((tt, tuple(items)))
            else:
                return None
            pending.clear()
    return out


# ---------------------------------------------------------------------------
# Matrix algebra (reference parser/state.py:422-483; I8)

class Mat(object):
    """Row-vector 3×3 affine; elements named as in the reference.

    All six ctor args pass through ``float()``; multiplication preserves the
    reference's exact per-element expression order (float-determinism is a
    correctness requirement — SURVEY.md §7.3)."""
    __slots__ = ('A', 'B', 'C', 'D', 'E', 'F', 'G', 'H', 'I')

    def __init__(self, a, b, c, d, e, f, g=0, h=0, i=1):
        self.A = float(a)
        self.B = float(b)
        self.C = float(c)
        self.D = float(d)
        self.E = float(e)
        self.F = float(f)
        self.G = float(g)
        self.H = float(h)
        self.I = float(i)

    def __mul__(a, b):
        return Mat(
            a.A * b.A + a.B * b.C + a.G * b.E,
            a.A * b.B + a.B * b.D + a.G * b.F,
            a.C * b.A + a.D * b.C + a.H * b.E,
            a.C * b.B + a.D * b.D + a.H * b.F,
            a.E * b.A + a.F * b.C + a.I * b.E,
            a.E * b.B + a.F * b.D + a.I * b.F,
            a.A * b.G + a.B * b.H + a.G * b.I,
            a.C * b.G + a.D * b.H + a.H * b.I,
            a.E * b.G + a.F * b.H + a.I * b.I,
        )

    @staticmethod
    def identity():
        return Mat(1, 0, 0, 1, 0, 0)

    @staticmethod
    def of(a, b, c, d, e, f, g, h, i):
        """A Mat of nine floats as they are (``Mat()`` converts each)."""
        m = Mat.__new__(Mat)
        m.A = a
        m.B = b
        m.C = c
        m.D = d
        m.E = e
        m.F = f
        m.G = g
        m.H = h
        m.I = i
        return m

    def translate_mul(b, tx, ty):
        """``Mat(1,0,0,1,tx,ty) * b`` without the two allocations + nine
        float() calls of the generic path.  Per-term expression order of
        the kept terms matches ``__mul__`` exactly; dropped terms are
        ``1*x`` (exact) and ``+0*y`` (value-exact; can only flip the sign
        of a zero result, which no consumer distinguishes — comparisons
        use ``==`` and the assembler never renders coordinates)."""
        m = Mat.__new__(Mat)
        m.A = b.A
        m.B = b.B
        m.C = b.C
        m.D = b.D
        m.E = tx * b.A + ty * b.C + b.E
        m.F = tx * b.B + ty * b.D + b.F
        m.G = b.G
        m.H = b.H
        m.I = tx * b.G + ty * b.H + b.I
        return m

    def __repr__(self):
        return "[%.2f %.2f; %.2f %.2f; %.2f %.2f]" % (self.A, self.B, self.C, self.D, self.E, self.F)


# Mat instances are never mutated in place, so one identity serves all.
_IDENTITY = Mat.identity()


# ---------------------------------------------------------------------------
# Graphics + text state (reference parser/state.py:57-416; I4-I7, I9)

class TextState(object):
    __slots__ = ('Tf', 'Tfs', 'Tc', 'TL', 'Tr', 'Ts', 'Tw', 'Tz',
                 '_Tm', '_Tlm')

    def __init__(self):
        self.Tf = None
        self.Tfs = None
        self.Tc = 0.0
        self.TL = 0.0
        self.Tr = 0
        self.Ts = 0.0
        self.Tw = 0.0
        self.Tz = 100.0
        self._Tm = None
        self._Tlm = None

    # `Tm = v` sets BOTH Tm and Tlm (cloned reference quirk, state.py:364)
    @property
    def Tm(self):
        return self._Tm

    @Tm.setter
    def Tm(self, v):
        self._Tm = self._Tlm = v

    @property
    def Tlm(self):
        return self._Tlm

    @Tlm.setter
    def Tlm(self, v):
        self._Tlm = v

    def set_Tc(self, v):
        self.Tc = float(v)

    def set_Tfs(self, v):
        self.Tfs = float(v)

    def set_TL(self, v):
        self.TL = float(v)

    def set_Tr(self, v):
        self.Tr = int(v)

    def set_Ts(self, v):
        self.Ts = float(v)

    def set_Tw(self, v):
        self.Tw = float(v)

    def set_Tz(self, v):
        self.Tz = float(v)

    def text_begin(self):
        self._Tm = self._Tlm = _IDENTITY

    def text_end(self):
        self._Tm = None
        self._Tlm = None

    def do_Td(self, x, y):
        self._Tm = self._Tlm = self._Tlm.translate_mul(float(x), float(y))

    def do_TD(self, x, y):
        self.set_TL(-y)
        self.do_Td(x, y)

    def do_Tstar(self):
        # NB sign: the reference passes +TL (state.py:415-416)
        self.do_Td(0, self.TL)

    def do_Tj(self, w, glyph):
        """Advance Tm for a TJ kern (w) or a drawn glyph — exact float
        expression order from reference state.py:391-412."""
        if w is not None:
            tx = ((0.0 - w) / 1000.0 * self.Tfs) * (self.Tz / 100.0)
        else:
            tx = ((glyph.width - 0.0) / 1000.0 * self.Tfs + self.Tc + self.Tw) * (self.Tz / 100.0)
        self._Tm = self._Tlm = self._Tm.translate_mul(tx, 0.0)

    def copy(self):
        t = TextState.__new__(TextState)
        t.Tf = self.Tf
        t.Tfs = self.Tfs
        t.Tc = self.Tc
        t.TL = self.TL
        t.Tr = self.Tr
        t.Ts = self.Ts
        t.Tw = self.Tw
        t.Tz = self.Tz
        t._Tm = self._Tm          # Mat instances are never mutated in place
        t._Tlm = self._Tlm
        return t


class GraphicsState(object):
    """Graphics state; path ops track the current point only — there is no
    rasterization (reference State, parser/state.py:107-309)."""

    __slots__ = ('cm', 'text', 'colorspace', 'color', 'linewidth', 'linecap',
                 'linejoin', 'miterlimit', 'dashpattern', 'renderingintent',
                 'ri', 'strokeadjustment', 'blendmode', 'alphaconstant',
                 'alphasource', 'overprint', 'overprintmode', 'flatness',
                 'smoothness', 'startpos', 'path')

    def __init__(self):
        self.cm = _IDENTITY
        self.text = TextState()
        self.colorspace = (0, 0)        # (stroking, non-stroking) DeviceGray
        self.color = (None, None)
        self.linewidth = 1.0
        self.linecap = 0
        self.linejoin = 0
        self.miterlimit = 10.0
        self.dashpattern = (tuple(), 0)
        self.renderingintent = 1
        # Cloned reference quirk: the 'ri' op and gs.RI assign a STRAY
        # attribute `State.ri` (reference __init__.py:371,382: `s.S.ri = v`)
        # that bypasses the validated `renderingintent` property entirely —
        # so 'Perceptual' (which the reference's RI_MAP misspells as
        # 'Perception') is silently accepted, never validated.
        self.ri = None
        self.strokeadjustment = False
        self.blendmode = 0
        self.alphaconstant = (1.0, 1.0)
        self.alphasource = False
        self.overprint = (False, False)
        self.overprintmode = 0
        self.flatness = 1.0
        self.smoothness = None
        self.startpos = (0.0, 0.0)
        self.path = [(0.0, 0.0)]

    def copy(self):
        s = GraphicsState.__new__(GraphicsState)
        s.cm = self.cm
        s.text = self.text.copy()
        s.colorspace = self.colorspace
        s.color = self.color
        s.linewidth = self.linewidth
        s.linecap = self.linecap
        s.linejoin = self.linejoin
        s.miterlimit = self.miterlimit
        s.dashpattern = self.dashpattern
        s.renderingintent = self.renderingintent
        s.ri = self.ri
        s.strokeadjustment = self.strokeadjustment
        s.blendmode = self.blendmode
        s.alphaconstant = self.alphaconstant
        s.alphasource = self.alphasource
        s.overprint = self.overprint
        s.overprintmode = self.overprintmode
        s.flatness = self.flatness
        s.smoothness = self.smoothness
        s.startpos = self.startpos
        s.path = list(self.path)
        return s

    # Path construction — current-point tracking only
    def do_m(self, x, y):
        self.path = [(float(x), float(y))]
        self.startpos = self.path[-1]

    def do_l(self, x, y):
        self.path.append((float(x), float(y)))

    def do_c(self, x1, y1, x2, y2, x3, y3):
        self.path.append((float(x3), float(y3)))

    def do_v(self, x2, y2, x3, y3):
        self.path.append((float(x3), float(y3)))

    def do_y(self, x1, y1, x3, y3):
        self.path.append((float(x3), float(y3)))

    def do_h(self):
        if self.startpos:
            self.do_l(self.startpos[0], self.startpos[1])
        self.startpos = None

    def do_re(self, x, y, w, h):
        if self.startpos is None:
            self.startpos = (float(x), float(y))
        self.do_m(x, y)
        self.do_l(x + w, y)
        self.do_l(x + w, y + h)
        self.do_l(x, y + h)
        self.do_h()

    def do_S(self):
        pass

    def do_s(self):
        self.do_S()
        self.do_h()

    def do_n(self):
        self.do_h()

    # Color
    def do_G(self, v):
        self.colorspace = (0, self.colorspace[1])
        self.color = (v, self.color[1])

    def do_g(self, v):
        self.colorspace = (self.colorspace[0], 0)
        self.color = (self.color[0], v)

    def do_RG(self, r, g, b):
        self.colorspace = (1, self.colorspace[1])
        self.color = ((r, g, b), self.color[1])

    def do_rg(self, r, g, b):
        self.colorspace = (self.colorspace[0], 1)
        self.color = (self.color[0], (r, g, b))

    def do_K(self, c, m, y, k):
        self.colorspace = (2, self.colorspace[1])
        self.color = ((c, m, y, k), self.color[1])

    def do_k(self, c, m, y, k):
        self.colorspace = (self.colorspace[0], 2)
        self.color = (self.color[0], (c, m, y, k))


class StateStack(object):
    """q/Q stack (reference StateManager, state.py:57-105; I6).  ``q``
    copies the whole state including text state; ``Q`` cannot pop the
    initial frame.  ``S`` is the top state and ``T`` its text state."""
    __slots__ = ('stack', 'S', 'T')

    def __init__(self):
        self.S = GraphicsState()
        self.T = self.S.text
        self.stack = [self.S]

    def push(self):
        self.S = self.S.copy()
        self.T = self.S.text
        self.stack.append(self.S)

    def pop(self):
        if len(self.stack) == 1:
            raise PdfError("Cannot pop initial values of the stack")
        self.stack.pop()
        self.S = self.stack[-1]
        self.T = self.S.text
