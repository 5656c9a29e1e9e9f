"""Property-based COS-parser conformance: random COS value trees must
parse to the same Python values through the engine's recursive-descent
parser (lexers.scan_cos + cos.parse_values) and the reference's
tokenize → consolidate → convert pipeline (P1+P2+R12)."""

import string

import pytest
from hypothesis import given, settings, strategies as st

import oracle  # ensures shim + reference paths

# the reference is imported only once it is known to be present, so a
# missing reference skips this module instead of failing its collection
if not oracle.oracle_available():
    pytest.skip('reference oracle not present', allow_module_level=True)

oracle._ensure_paths()
from pypdfproc.parser import pdf as refpdf          # noqa: E402
from pypdfproc import pdf as refcos                 # noqa: E402
from pypdfproc.parser import TokenHelpers           # noqa: E402

from engine.pdfcore.lexers import scan_cos          # noqa: E402
from engine.pdfcore.cos import parse_values, Ref, Hexstring  # noqa: E402

_name = st.text(alphabet=string.ascii_letters + string.digits,
                min_size=1, max_size=8)
_lit = st.text(alphabet=string.ascii_letters + string.digits + ' .,;:-',
               min_size=0, max_size=12)
_hex = st.text(alphabet='0123456789ABCDEFabcdef', min_size=2, max_size=8)

_scalar = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-8000, max_value=8000).map(lambda n: n / 4.0),
    _name.map(lambda s: ('NAME', s)),
    _lit.map(lambda s: ('LIT', s)),
    _hex.map(lambda s: ('HEX', s)),
    st.booleans(),
    st.none(),
    st.tuples(st.just('REF'), st.integers(min_value=1, max_value=99),
              st.integers(min_value=0, max_value=5)),
)

_value = st.recursive(
    _scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_name, children, min_size=0, max_size=4),
    ),
    max_leaves=12,
)


def _ser(v):
    if isinstance(v, tuple):
        if v[0] == 'NAME':
            return '/' + v[1]
        if v[0] == 'LIT':
            return '(' + v[1] + ')'
        if v[0] == 'HEX':
            return '<' + v[1] + '>'
        if v[0] == 'REF':
            return '%d %d R' % (v[1], v[2])
    if isinstance(v, bool):
        return 'true' if v else 'false'
    if v is None:
        return 'null'
    if isinstance(v, float):
        return '%.2f' % v
    if isinstance(v, int):
        return str(v)
    if isinstance(v, list):
        return '[' + ' '.join(_ser(x) for x in v) + ']'
    if isinstance(v, dict):
        return '<< ' + ' '.join('/%s %s' % (k, _ser(x)) for k, x in v.items()) + ' >>'
    raise AssertionError(v)


def _norm_engine(v):
    if isinstance(v, Ref):
        return ('REF', v.objid, v.generation)
    if isinstance(v, Hexstring):
        return ('HEX', v.string)
    if isinstance(v, dict):
        return {k: _norm_engine(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_norm_engine(x) for x in v]
    return v


def _norm_ref(v):
    if isinstance(v, refcos.IndirectObject):
        return ('REF', v.objid, v.generation)
    if isinstance(v, refcos.Hexstring):
        return ('HEX', v.string)
    if isinstance(v, refcos.Dictionary):
        return {k: _norm_ref(v[k]) for k in v.dictionary}
    if isinstance(v, refcos.Array):
        return [_norm_ref(x) for x in v.array]
    if isinstance(v, list):
        return [_norm_ref(x) for x in v]
    return v


@settings(max_examples=40, deadline=None)
@given(_value)
def test_cos_value_parity(value):
    text = _ser(value)

    toks_e = scan_cos(text)
    got = [_norm_engine(x) for x in parse_values(toks_e)]

    toks_r = refpdf.TokenizeString(text)
    cons = refpdf.ConsolidateTokens(toks_r)
    want = [_norm_ref(TokenHelpers.Convert(t)) for t in cons]

    assert got == want


def test_odd_dict_null_padding_quirk():
    """Consolidator quirk (reference pdf.py:373-379): a dict with an odd
    token count pads the missing value with NULL → None on both sides."""
    for text in ['<< /A >>', '<< /A 1 /B >>']:
        got = [_norm_engine(x) for x in parse_values(scan_cos(text))]
        cons = refpdf.ConsolidateTokens(refpdf.TokenizeString(text))
        want = [_norm_ref(TokenHelpers.Convert(t)) for t in cons]
        assert got == want
