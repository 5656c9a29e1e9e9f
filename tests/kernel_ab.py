"""Paired in-process A/B of two ``engine/pdfcore`` trees: output equality
and timing.

Loads this checkout's kernel and another checkout's (``--parent``, e.g. a
``git archive`` of the parent commit) as two separate packages in one
process, then:

* ``check``: runs ``extract_turn`` with and without spans on every payload
  of both kernels and compares ``repr`` of the results, so text, pages,
  counts, error strings and every span float's repr (including the sign
  of a zero) must match; it also compares this checkout's text, pages,
  counts and errors without spans (the string-at-a-time path) with its
  own with spans (the glyph loop).  Payloads: the seed-7 (800) and
  seed-11 (400) ``unique_docs`` documents, the 25 golden variants, and
  ``--fuzz`` documents mutated from those (byte edits, inserted and
  deleted spans, truncation, xref-table and content-stream edits) or
  built as text programs of random operators (rotated and skewed Tm and
  cm, signed zeros, Tc/Tw/Tz/Tr, kerns, missing codes).  It also runs
  ``--fuzz`` random strings of keywords, numbers and noise through every
  lexer of both kernels (equal tokens, or equal error type and message),
  and through this checkout's one-pass object and content parsers, which
  must equal its token paths wherever they vouch for a string.  Exits 1
  if anything differs.
* ``time``: times ``extract_turn`` over the ``unique_docs`` documents of
  ``--seed`` (``--docs`` of them), one ``SharedFontState`` per kernel,
  both warmed once, then ``--pairs`` pairs alternating which side runs
  first; prints each pair and the median parent/change ratio with its
  p25-p75.

Run from the repo root::

    python tests/kernel_ab.py --parent <dir> check --fuzz 5000
    python tests/kernel_ab.py --parent <dir> time --seed 7 --docs 800 --pairs 10
"""

import argparse
import importlib
import importlib.util
import os
import random
import statistics
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
sys.path[:0] = [_ROOT, _HERE]

from perfbench.corpus import _unique_rows  # noqa: E402
from gen_pdf import _Builder, _skeleton, build_variant, variant_ids  # noqa: E402


def load_kernel(root, name):
    """Import ``<root>/engine/pdfcore`` as package ``name``; return its
    ``extract`` module."""
    d = os.path.join(root, 'engine', 'pdfcore')
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(d, '__init__.py'), submodule_search_locations=[d])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return importlib.import_module(name + '.extract')


def unique_docs(seed, n):
    rows, _ = _unique_rows(random.Random('unique-%d' % seed), n, seed)
    return [r[2] for r in rows]


def variant_docs():
    return [build_variant(v).decode('latin-1') for v in variant_ids()]


_NOISE = '()\\<>[]/%\r\n\t 0123456789.-+fnRTjJdmqQBE*\'"'
_SNIPPETS = ['(', ')', '\\', '\\(', '\\)', '\\\\', '\\0', '\\12', '<<', '>>',
             '[', ']', '<48>', '<4>', '/F1', '/F9', ' 12 Tf', ' Tj', ' TJ',
             ' BT', ' ET', ' q', ' Q', ' 1 0 0 1 5 5 cm', ' 1 2 Td', ' T*',
             ' -300', ' 0.5', ' stream', ' endstream', ' obj', ' endobj',
             ' R', ' xref', ' trailer', ' startxref', '%%EOF', ' n', ' f',
             ' 0 0 m', ' 1 1 l', ' h', ' S', ' s', ' 1 2 3 4 re', ' 1 g',
             ' 1 0 0 RG', ' /GS1 gs', ' [1 2] 0 d', ' 2 w', ' /X1 Do',
             ' 1 Tc', ' 2 Tr', ' 50 Tz', ' 14 TL', ' 1 2 TD', ' 1 w',
             ' 2 0 0 2 9 9 Tm', ' /P <</MCID 0>> BDC', ' EMC', ' 0.5 sc',
             ' /CS0 cs', ' 1 2 SCN', ' 1 i', ' 0 J', ' 0 j', ' 4 M', ' /R ri',
             '\r\n', '\r', '\n', ' ']
# Text-state snippets for built text programs: both sides of the string
# path's guard (rotated, sheared or skewed Tm and cm, signed zeros, rise,
# spacing, scaling, sizes and kerns that overflow, codes without a
# glyph).  The INT -0 reads as 0; -0.0 is the FLOAT that keeps its sign.
_TEXT_SNIPPETS = [' 0 1 -1 0 9 9 Tm', ' 0 1 -1 0 0 0 cm', ' 1 0 0 1 -0 -0 Tm',
                  ' 1 0 0 1 -0.0 -0.0 Tm', ' 1 -0.0 0 1 0 -0.0 Tm', ' 2 0 0.5 1 72 700 Tm',
                  ' 1 0.5 0 1 72 700 Tm', ' 1 0.5 0 1 0 0 cm', ' 1 0 0 1 0.5 -0.5 cm',
                  ' 1 0 0 1 72 700 Tm', ' 2 0 0 2 -0.0 0 cm', ' 1 Tc', ' -1 Tc', ' 2 Tw',
                  ' 0 Tw', ' 50 Tz', ' 100 Tz', ' 2 Tr', ' 0 Tr', ' /F1 12 Tf', ' /F1 -9 Tf',
                  ' /F1 0 Tf', ' /F1 -0.0 Tf', ' /F1 ' + '9' * 400 + '.0 Tf', ' 0 -14 Td',
                  ' T*', ' 14 TL', ' q', ' Q', ' (Ab c) Tj', " (it's) Tj", ' (\\001x) Tj',
                  ' [(A) -300 (B)] TJ', ' [(A) -' + '9' * 400 + '.0 (B)] TJ',
                  ' [-0.0 (C) 0 (D)] TJ', ' () Tj']


def _snippet(rng):
    if rng.random() < 0.5:
        return ''.join(rng.choice(_NOISE) for _ in range(rng.randint(1, 6)))
    return ''.join(rng.choice(_SNIPPETS) for _ in range(rng.randint(1, 4)))


def fuzz_doc(rng, base):
    """One mutation of ``base``; the content-stream edit keeps every byte
    offset, so the document still parses and the content lexer and
    renderer see the damage."""
    n = len(base)
    kind = rng.randrange(8)
    if kind == 0:                                   # scattered byte edits
        b = list(base)
        for _ in range(rng.randint(1, 4)):
            b[rng.randrange(n)] = rng.choice(_NOISE)
        return ''.join(b)
    if kind == 1:                                   # insert a snippet
        p = rng.randrange(n)
        return base[:p] + _snippet(rng) + base[p:]
    if kind == 2:                                   # delete a span
        p = rng.randrange(n)
        return base[:p] + base[p + rng.randint(1, 12):]
    if kind == 3:                                   # truncate
        return base[:rng.randrange(n)]
    if kind == 7:                                   # a built text program
        prog = ' BT /F1 12 Tf 72 720 Td' + ''.join(
            rng.choice(_TEXT_SNIPPETS) for _ in range(rng.randint(1, 12))) + ' ET'
        b = _Builder()
        _skeleton(b, [4])
        b.add_stream(4, b'', prog.encode('latin-1'))
        b.add(5, b'<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>')
        return b.build().decode('latin-1')
    if kind == 4:                                   # xref-table edits
        x = base.rfind('xref')
        if x < 0:
            return base
        head, tab = base[:x], base[x:]
        op = rng.randrange(4)
        if op == 0:
            tab = tab.replace('\n', rng.choice(('\r\n', '\r')))
        elif op == 1:
            rows = tab.split('\n')
            i = rng.randrange(len(rows))
            rows[i] = rng.choice((rows[i] + ' ', rows[i][:-2], rows[i].rstrip(),
                                  rows[i].replace(' n', ' x'),
                                  rows[i].replace(' n', ' f'), ''))
            tab = '\n'.join(rows)
        elif op == 2:
            p = rng.randrange(len(tab))
            tab = tab[:p] + rng.choice(_NOISE) + tab[p + 1:]
        else:
            tab = tab.replace('xref\n0 ', 'xref\n0 1%d' % rng.randint(0, 9), 1)
        return head + tab
    # same-length edit inside an uncompressed content stream
    starts = [i for i in range(n) if base.startswith('stream\n', i)]
    rng.shuffle(starts)
    for s in starts:
        s += len('stream\n')
        e = base.find('\nendstream', s)
        body = base[s:e]
        if e < 0 or not body or 'BT' not in body:
            continue
        p = rng.randrange(len(body))
        k = rng.randint(1, 10)
        rep = (_snippet(rng) + ' ' * k)[:min(k, len(body) - p)]
        return base[:s + p] + rep + base[s + p + len(rep):]
    return base


def fuzz_docs(n, seeds):
    rng = random.Random('kernel-ab-fuzz')
    return [fuzz_doc(rng, rng.choice(seeds)) for _ in range(n)]


_LEX_WORDS = sorted(set(_SNIPPETS + [
    'startxref', 'xref', 'trailer', 'endstream', 'stream', 'endobj', 'obj',
    'true', 'false', 'null', '%%EOF', '% c\n', 'scn', 'SCN', 'sc', 'SC', 's', 'S',
    'f*', 'B*', 'b*', 'W*', 'T*', 'Td', 'TD', 'Tc', 'Tw', 'Tz', 'TL', 'Tr',
    'Ts', 'Tk', 'Tm', 'cm', 're', 'ri', 'gs', 'Do', 'BDC', 'BMC', 'EMC', 'MP',
    'DP', 'begincmap', 'endcmap', 'beginbfchar', 'endbfchar', 'beginbfrange',
    'endbfrange', 'begincidrange', 'endcidrange', 'usecmap', 'def', 'dict',
    'dup', 'pop', 'begin', 'end', '/CMapName', 'findresource', '3.5', '-.5',
    '+7', '1.', '<0A1b>', '<zz>', '\x01', '\xe9']))


def _lex(scan, text, *args):
    try:
        return [t if isinstance(t, tuple) else (t.type, t.value, t.pos)
                for t in scan(text, *args)]
    except Exception as e:
        return '%s: %s' % (type(e).__name__, e)


def _lex_texts(n):
    rng = random.Random('kernel-ab-lex')
    for _ in range(n):
        yield ''.join(rng.choice(_LEX_WORDS) if rng.random() < 0.6
                      else rng.choice(' \r\n') for _ in range(rng.randint(1, 40)))


def _ops(fn, text):
    """Prefix operators of ``fn(text)`` without token positions, or the
    error."""
    try:
        ops = fn(text)
    except Exception as e:
        return '%s: %s' % (type(e).__name__, e)
    if isinstance(ops, dict):
        ops = ops['tokens']
    return [(op, a if isinstance(a, str) else
             [t[:2] if isinstance(t, tuple) else t for t in a]) for op, a in ops]


def fast_path_check(change, n):
    """The same random strings through this checkout's one-pass parsers:
    ``content_ops`` equals ``tokenize_content`` but for positions, and
    ``fold_tokens(split_tokens(...))``, where not None, equals
    ``parse_values(scan_cos(...))``."""
    pkg = change.__name__.rsplit('.', 1)[0]
    lexers, cos, content = (sys.modules[pkg + m] for m in ('.lexers', '.cos', '.content'))
    bad = 0
    for text in _lex_texts(n):
        a = _ops(content.tokenize_content, text)
        b = _ops(content.content_ops, text)
        toks = cos.split_tokens(text, 0, len(text))
        vals = None if toks is None else cos.fold_tokens(toks)
        if vals is not None:
            want = repr(cos.parse_values(lexers.scan_cos(text)))
        if a != b or (vals is not None and repr(vals) != want):
            bad += 1
            if bad <= 5:
                print('DIFF fast path on %r' % (text,))
    return bad


def lexer_check(parent, change, n):
    """Random strings of keywords, numbers and noise through each lexer
    of both kernels: equal tokens, or equal error type and message."""
    lp = sys.modules[parent.__name__.rsplit('.', 1)[0] + '.lexers']
    lc = sys.modules[change.__name__.rsplit('.', 1)[0] + '.lexers']
    bad = 0
    for text in _lex_texts(n):
        runs = [('scan_content', ()), ('scan_cmap', ()), ('scan_cos', ()),
                ('scan_cos', (0, 'endobj', 3)), ('scan_cos', (0, 'INT', 3)),
                ('scan_cos', (0, 'LIT', 3)), ('scan_cos', (0, 'stream', 3))]
        for name, args in runs:
            a = _lex(getattr(lp, name), text, *args)
            b = _lex(getattr(lc, name), text, *args)
            if a != b:
                bad += 1
                if bad <= 5:
                    print('DIFF %s%r on %r\n  parent %r\n  change %r'
                          % (name, args, text, a, b))
    return bad


def check(parent, change, payloads):
    """(parent/change differences, this checkout's text-path/span-path
    differences) over ``payloads``."""
    sa, sb = parent.SharedFontState(), change.SharedFontState()
    bad = paths = 0
    keys = ('text', 'pages', 'n_spans', 'decode_ok', 'error')
    for i, p in enumerate(payloads):
        got = {}
        for spans in (False, True):
            got[spans] = change.extract_turn(p, sb, collect_spans=spans)
            a = repr(parent.extract_turn(p, sa, collect_spans=spans))
            b = repr(got[spans])
            if a != b:
                bad += 1
                if bad <= 5:
                    print('DIFF payload %d spans=%s\n  parent %s\n  change %s'
                          % (i, spans, a[:300], b[:300]))
        if [got[False][k] for k in keys] != [got[True][k] for k in keys]:
            paths += 1
            if paths <= 5:
                print('DIFF payload %d text path vs span path' % i)
    return bad, paths


def time_pairs(parent, change, payloads, pairs):
    sides = {'parent': (parent, parent.SharedFontState()),
             'change': (change, change.SharedFontState())}

    def run(name):
        ex, shared = sides[name]
        t0 = time.perf_counter()
        for p in payloads:
            ex.extract_turn(p, shared)
        return time.perf_counter() - t0

    run('parent')
    run('change')
    ratios = []
    for k in range(pairs):
        order = ('parent', 'change') if k % 2 == 0 else ('change', 'parent')
        t = {name: run(name) for name in order}
        ratios.append(t['parent'] / t['change'])
        print('pair %2d  parent %.3f s  change %.3f s  ratio %.3f'
              % (k, t['parent'], t['change'], ratios[-1]))
    q = statistics.quantiles(ratios, n=4)
    print('median ratio %.3f (p25-p75 %.3f-%.3f), %d/%d pairs won'
          % (statistics.median(ratios), q[0], q[2],
             sum(r > 1 for r in ratios), pairs))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--parent', required=True,
                    help='root of the checkout to compare against')
    sub = ap.add_subparsers(dest='cmd', required=True)
    c = sub.add_parser('check')
    c.add_argument('--fuzz', type=int, default=5000)
    t = sub.add_parser('time')
    t.add_argument('--seed', type=int, default=7)
    t.add_argument('--docs', type=int, default=800)
    t.add_argument('--pairs', type=int, default=10)
    args = ap.parse_args(argv)

    parent = load_kernel(os.path.abspath(args.parent), 'kernel_parent')
    change = load_kernel(_ROOT, 'kernel_change')
    if args.cmd == 'time':
        time_pairs(parent, change, unique_docs(args.seed, args.docs), args.pairs)
        return 0
    sets = {'unique seed 7': unique_docs(7, 800),
            'unique seed 11': unique_docs(11, 400),
            'variants': variant_docs()}
    seeds = sets['variants'] + sets['unique seed 7'][:50]
    sets['fuzzed'] = fuzz_docs(args.fuzz, seeds)
    failed = lexer_check(parent, change, args.fuzz)
    print('%-15s %5d strings, %d differ' % ('lexers', args.fuzz, failed))
    bad = fast_path_check(change, args.fuzz)
    print('%-15s %5d strings, %d differ' % ('fast parsers', args.fuzz, bad))
    failed += bad
    for name, payloads in sets.items():
        bad, paths = check(parent, change, payloads)
        print('%-15s %5d documents, %d differ' % (name, len(payloads), bad))
        print('%-15s %5d documents, %d differ' % ('  text path', len(payloads), paths))
        failed += bad + paths
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main())
