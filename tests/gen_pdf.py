"""Deterministic synthetic PDF builder (FIXTURES.md §2).

Each variant Vxx is a minimal, valid PDF exercising one slice of the
operator inventory (SURVEY.md §2).  All variants except the deliberately
corrupt V18 family must parse under the reference oracle — asserted at
golden-generation time by tests/gen_golden.py.

No wall clock, no randomness: outputs are pure functions of the variant id.
"""

import zlib

__all__ = ['VARIANTS', 'build_variant', 'variant_ids']


def _ser(v):
    """Serialize a python value as COS text."""
    if isinstance(v, bytes):
        return v
    raise TypeError(v)


class _Builder(object):
    """Assembles numbered objects into a classic-xref PDF."""

    def __init__(self, version=b"1.4"):
        self.version = version
        self.objs = {}

    def add(self, num, body):
        """body: bytes placed between 'N 0 obj' and 'endobj'."""
        self.objs[num] = body
        return num

    def add_stream(self, num, dictpart, data, length=None):
        if length is None:
            length = b"%d" % len(data)
        body = b"<< /Length " + length + (b" " + dictpart if dictpart else b"") + b" >>\nstream\n" + data + b"\nendstream"
        self.objs[num] = body
        return num

    def build(self, trailer_extra=b"", prev_body=None):
        """Returns full file bytes with a plaintext xref + trailer.

        ``prev_body``: if given, this file is appended as an incremental
        update on top of those bytes and the trailer gets /Prev.
        """
        out = bytearray()
        prev_xref_off = None
        if prev_body is None:
            out += b"%PDF-" + self.version + b"\n"
        else:
            out += prev_body
            # find previous startxref for /Prev
            idx = prev_body.rfind(b"startxref")
            prev_xref_off = int(prev_body[idx + 9:].split()[0])
            if not out.endswith(b"\n"):
                out += b"\n"
        offsets = {}
        for num in sorted(self.objs):
            offsets[num] = len(out)
            out += b"%d 0 obj\n" % num + self.objs[num] + b"\nendobj\n"
        xref_off = len(out)
        maxnum = max(self.objs)
        if prev_body is None:
            # single subsection 0..maxnum (reference supports only one)
            out += b"xref\n0 %d\n" % (maxnum + 1)
            out += b"0000000000 65535 f \n"
            for num in range(1, maxnum + 1):
                if num in offsets:
                    out += b"%010d 00000 n \n" % offsets[num]
                else:
                    out += b"0000000000 65535 f \n"
        else:
            # incremental update: still a 0-based subsection covering all
            # objects, free rows for untouched ones
            out += b"xref\n0 %d\n" % (maxnum + 1)
            out += b"0000000000 65535 f \n"
            for num in range(1, maxnum + 1):
                if num in offsets:
                    out += b"%010d 00000 n \n" % offsets[num]
                else:
                    out += b"0000000000 65535 f \n"
        trailer = b"trailer\n<< /Size %d /Root 1 0 R" % (maxnum + 1)
        if prev_xref_off is not None:
            trailer += b" /Prev %d" % prev_xref_off
        trailer += trailer_extra
        trailer += b" >>\nstartxref\n%d\n%%%%EOF\n" % xref_off
        out += trailer
        return bytes(out)


def _skeleton(b, contents_nums, resources=b"<< /Font << /F1 5 0 R >> >>",
              page_extra=b""):
    """Standard catalog/pages/page trio; contents_nums: list of obj nums."""
    b.add(1, b"<< /Type /Catalog /Pages 2 0 R >>")
    b.add(2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>")
    if len(contents_nums) == 1:
        cts = b"%d 0 R" % contents_nums[0]
    else:
        cts = b"[" + b" ".join(b"%d 0 R" % n for n in contents_nums) + b"]"
    b.add(3, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
             b"/Resources " + resources + b" /Contents " + cts + page_extra + b" >>")


_HELV = b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>"
_TIMES = b"<< /Type /Font /Subtype /Type1 /BaseFont /Times-Roman >>"


def v01():
    """Plaintext xref, uncompressed content, Type1 Helvetica, single Tj."""
    b = _Builder()
    content = b"BT /F1 12 Tf 72 720 Td (Hello World) Tj ET"
    _skeleton(b, [4])
    b.add_stream(4, b"", content)
    b.add(5, _HELV)
    return b.build()


def v02():
    """Two Contents streams split mid-sequence (the ' '.join quirk)."""
    b = _Builder()
    c1 = b"BT /F1 12 Tf 72 720"
    c2 = b"Td (Split across streams) Tj ET"
    _skeleton(b, [4, 6])
    b.add_stream(4, b"", c1)
    b.add(5, _HELV)
    b.add_stream(6, b"", c2)
    return b.build()


def v03():
    """FlateDecode content stream."""
    b = _Builder()
    content = zlib.compress(b"BT /F1 14 Tf 100 700 Td (Compressed content!) Tj ET")
    _skeleton(b, [4])
    b.add_stream(4, b"/Filter /FlateDecode", content)
    b.add(5, _HELV)
    return b.build()


def _png_up_encode(data, columns):
    """PNG Up predictor encode: rows of `columns` bytes, prepend 2."""
    rows = [data[i:i + columns] for i in range(0, len(data), columns)]
    out = bytearray()
    prev = bytes(columns)
    for r in rows:
        out += b"\x02"
        out += bytes((r[i] - prev[i]) % 256 for i in range(columns))
        prev = r
    return bytes(out)


def v04():
    """XRef stream + object stream + Flate w/ PNG-Up predictor."""
    # Objects 1 (catalog), 2 (pages), 3 (page) live inside ObjStm 6.
    # 4 = content, 5 = font, 6 = objstm, 7 = xref stream.
    content = b"BT /F1 12 Tf 72 700 Td (ObjStm + XRefStream) Tj ET"

    inner = [
        (1, b"<< /Type /Catalog /Pages 2 0 R >>"),
        (2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>"),
        (3, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 5 0 R >> >> /Contents 4 0 R >>"),
    ]
    hdr = []
    payload = b""
    for num, body in inner:
        hdr.append((num, len(payload)))
        payload += body + b" "
    first_off = len((" ".join("%d %d" % p for p in hdr) + " ").encode())
    objstm_data = (" ".join("%d %d" % p for p in hdr) + " ").encode() + payload
    objstm_z = zlib.compress(objstm_data)

    out = bytearray()
    out += b"%PDF-1.5\n"
    offsets = {}

    def emit(num, body):
        offsets[num] = len(out)
        out.extend(b"%d 0 obj\n" % num + body + b"\nendobj\n")

    emit(4, b"<< /Length %d >>\nstream\n" % len(content) + content + b"\nendstream")
    emit(5, _HELV)
    emit(6, b"<< /Type /ObjStm /N 3 /First %d /Length %d /Filter /FlateDecode >>\nstream\n"
            % (first_off, len(objstm_z)) + objstm_z + b"\nendstream")

    # xref stream (object 7): W [1 2 1], 8 rows (0..7), PNG-Up predicted
    xref_off = len(out)
    rows = []
    rows.append(bytes([0, 0, 0, 255]))               # obj 0 free
    for i in range(1, 4):                            # objs 1-3 in stream 6
        rows.append(bytes([2, 0, 6, i - 1]))
    for num in (4, 5, 6):
        off = offsets[num]
        rows.append(bytes([1, off >> 8, off & 255, 0]))
    rows.append(bytes([1, xref_off >> 8, xref_off & 255, 0]))  # obj 7 (self)
    raw = b"".join(rows)
    pred = _png_up_encode(raw, 4)
    xz = zlib.compress(pred)
    emit(7, b"<< /Type /XRef /Size 8 /W [1 2 1] /Root 1 0 R "
            b"/Filter /FlateDecode /DecodeParms << /Predictor 12 /Columns 4 >> "
            b"/Length %d >>\nstream\n" % len(xz) + xz + b"\nendstream")
    out += b"startxref\n%d\n%%%%EOF\n" % xref_off
    return bytes(out)


def v05():
    """/Length as an indirect object (two-phase stream length)."""
    b = _Builder()
    content = b"BT /F1 12 Tf 72 680 Td (Indirect length) Tj ET"
    _skeleton(b, [4])
    b.add_stream(4, b"", content, length=b"6 0 R")
    b.add(5, _HELV)
    b.add(6, b"%d" % len(content))
    return b.build()


def v06():
    """Literal escapes and odd-length hex-adjacent cases (as literals)."""
    b = _Builder()
    # octal escapes (3- and 2-digit), escaped backslash, parens via octal.
    # NB: \t/\n escapes decode to control chars that the Std encoding map
    # cannot map — the reference page-faults on those; keep them out of the
    # success fixture (they're unit-tested at the splitter level instead).
    content = (b"BT /F1 12 Tf 72 660 Td "
               b"(esc: \\053 and \\\\ done) Tj "
               b"0 -20 Td (octal \\101\\102 \\61 and \\50paren\\51 end) Tj ET")
    _skeleton(b, [4])
    b.add_stream(4, b"", content)
    b.add(5, _HELV)
    return b.build()


def v07():
    """TJ kerns straddling the 0.5*avg-width implied-space threshold.

    Helvetica avg nonzero width is ~ let the oracle decide; use one big kern
    (-600, clearly above) and one small (-10, clearly below)."""
    b = _Builder()
    content = (b"BT /F1 12 Tf 72 640 Td "
               b"[ (A) -600 (B) -10 (C) 600 (D) ] TJ ET")
    _skeleton(b, [4])
    b.add_stream(4, b"", content)
    b.add(5, _HELV)
    return b.build()


def v08():
    """Multi-line text via Td/TD/T* with distinct y's."""
    b = _Builder()
    content = (b"BT /F1 12 Tf 72 700 Td (line one) Tj "
               b"0 -14 Td (line two) Tj "
               b"10 -14 TD (line three) Tj "
               b"T* (line four) Tj ET")
    _skeleton(b, [4])
    b.add_stream(4, b"", content)
    b.add(5, _HELV)
    return b.build()


def v09():
    """TrueType font with /Widths + /Encoding dict with /Differences.

    (NB: must be TrueType — the reference routes Subtype=Type1 through the
    AFM path unconditionally, so Differences would be ignored there.)"""
    b = _Builder()
    content = b"BT /F1 12 Tf 72 620 Td (abXY) Tj ET"
    _skeleton(b, [4])
    b.add_stream(4, b"", content)
    # FirstChar 88 ('X'): widths for X,Y,Z,...; a,b remapped via Differences
    widths = b"[" + b" ".join(b"%d" % (500 + i) for i in range(20)) + b"]"
    b.add(5, b"<< /Type /Font /Subtype /TrueType /BaseFont /FakeTT "
             b"/FirstChar 88 /LastChar 107 /Widths " + widths +
             b" /Encoding 6 0 R >>")
    # Differences: map 'a'(97) -> alpha, 'b'(98) -> beta (AGL names)
    b.add(6, b"<< /Type /Encoding /BaseEncoding /WinAnsiEncoding "
             b"/Differences [97 /alpha /beta] >>")
    return b.build()


def v10():
    """WinAnsiEncoding TrueType using an unused code > 0o40 → bullet."""
    b = _Builder()
    # code 0x81 (129) is unused in WinAnsi → remaps to bullet (149)
    content = b"BT /F1 12 Tf 72 600 Td (A\x81B) Tj ET"
    _skeleton(b, [4])
    b.add_stream(4, b"", content)
    widths = b"[" + b" ".join(b"%d" % (400 + (i % 7) * 10) for i in range(128)) + b"]"
    b.add(5, b"<< /Type /Font /Subtype /TrueType /BaseFont /FakeTT2 "
             b"/FirstChar 60 /LastChar 187 /Widths " + widths +
             b" /Encoding /WinAnsiEncoding >>")
    return b.build()


def _tounicode_cmap():
    return (b"/CIDInit /ProcSet findresource begin\n"
            b"12 dict begin\n"
            b"begincmap\n"
            b"/CMapName /Adobe-Identity-UCS def\n"
            b"/CMapType 2 def\n"
            b"1 begincodespacerange\n<0000> <FFFF>\nendcodespacerange\n"
            b"2 beginbfchar\n<0041> <0041>\n<0042> <0042>\nendbfchar\n"
            b"1 beginbfrange\n<0061> <007A> <0061>\nendbfrange\n"
            b"endcmap\n"
            b"CMapName currentdict /CMap defineresource pop\nend\nend\n")


def v11():
    """Type0/Identity-H, hex show text, W with both patterns and CID gaps."""
    b = _Builder()
    content = b"BT /F1 12 Tf 72 580 Td <00410061> Tj <0042> Tj ET"
    _skeleton(b, [4])
    b.add_stream(4, b"", content)
    b.add(5, b"<< /Type /Font /Subtype /Type0 /BaseFont /FakeCID "
             b"/Encoding /Identity-H /DescendantFonts [6 0 R] /ToUnicode 7 0 R >>")
    # W: start [w...] pattern for 0x41.. and lo hi w for 0x61-0x7A; gap between
    b.add(6, b"<< /Type /Font /Subtype /CIDFontType2 /BaseFont /FakeCID "
             b"/CIDSystemInfo << /Registry (Adobe) /Ordering (Identity) /Supplement 0 >> "
             b"/W [65 [500 520 540] 97 122 480] >>")
    cm = _tounicode_cmap()
    b.add_stream(7, b"", cm)
    return b.build()


def v12():
    """Type0 with ToUnicode CMap bfchar + bfrange sections (hex text)."""
    b = _Builder()
    content = b"BT /F1 10 Tf 60 560 Td <0041004200610062> Tj ET"
    _skeleton(b, [4])
    b.add_stream(4, b"", content)
    b.add(5, b"<< /Type /Font /Subtype /Type0 /BaseFont /FakeCID2 "
             b"/Encoding /Identity-H /DescendantFonts [6 0 R] /ToUnicode 7 0 R >>")
    b.add(6, b"<< /Type /Font /Subtype /CIDFontType2 /BaseFont /FakeCID2 "
             b"/CIDSystemInfo << /Registry (Adobe) /Ordering (Identity) /Supplement 0 >> "
             b"/W [60 90 510 97 122 470] >>")
    b.add_stream(7, b"", _tounicode_cmap())
    return b.build()


def v13():
    """XObject Form with its own (indirect) Resources, painted via Do.

    NB: the reference's resource-stack lookup iterates page resources FIRST
    and raises if the page has a Font dict lacking the name — so the page
    here carries no /Font of its own and all text lives in the XObject."""
    b = _Builder()
    content = b"q 1 0 0 1 10 20 cm /X1 Do Q"
    _skeleton(b, [4], resources=b"<< /XObject << /X1 6 0 R >> >>")
    b.add_stream(4, b"", content)
    b.add(5, _HELV)
    xobj_content = (b"BT /F2 10 Tf 80 520 Td (inside xobject) Tj ET "
                    b"BT /F2 10 Tf 80 500 Td (second line) Tj ET")
    b.add_stream(6, b"/Type /XObject /Subtype /Form /BBox [0 0 612 792] /Resources 7 0 R",
                 xobj_content)
    b.add(7, b"<< /Font << /F2 8 0 R >> >>")
    b.add(8, _TIMES)
    return b.build()


def v14():
    """q/Q nesting with cm translation/scale between text objects."""
    b = _Builder()
    content = (b"q 1 0 0 1 50 -30 cm "
               b"BT /F1 12 Tf 72 700 Td (moved) Tj ET "
               b"q 2 0 0 2 0 0 cm BT /F1 12 Tf 10 10 Td (scaled) Tj ET Q "
               b"BT /F1 12 Tf 72 650 Td (back) Tj ET "
               b"Q BT /F1 12 Tf 72 600 Td (plain) Tj ET")
    _skeleton(b, [4])
    b.add_stream(4, b"", content)
    b.add(5, _HELV)
    return b.build()


def v15():
    """TrueType font with NO /Widths → AFM synthesis (Helvetica base)."""
    b = _Builder()
    content = b"BT /F1 12 Tf 72 580 Td (Synthesized widths) Tj ET"
    _skeleton(b, [4])
    b.add_stream(4, b"", content)
    b.add(5, b"<< /Type /Font /Subtype /TrueType /BaseFont /Helvetica "
             b"/Encoding /WinAnsiEncoding >>")
    return b.build()


def v16():
    """Incremental update: second xref with /Prev supersedes the content."""
    b1 = _Builder()
    content1 = b"BT /F1 12 Tf 72 560 Td (original text) Tj ET"
    _skeleton(b1, [4])
    b1.add_stream(4, b"", content1)
    b1.add(5, _HELV)
    base = b1.build()

    b2 = _Builder()
    content2 = b"BT /F1 12 Tf 72 560 Td (updated text) Tj ET"
    b2.add_stream(4, b"", content2)
    return b2.build(prev_body=base)


def v17():
    """Graphics-only page (paths, colors, no text) → page text ''."""
    b = _Builder()
    content = (b"q 0.5 G 0.2 0.4 0.6 rg 2 w "
               b"100 100 m 200 200 l 300 100 l h S "
               b"50 50 100 80 re f n Q")
    _skeleton(b, [4])
    b.add_stream(4, b"", content)
    b.add(5, _HELV)
    return b.build()


def v18a():
    """Corrupt: truncated file (xref offset beyond EOF)."""
    good = v01()
    return good[:len(good) // 2] + b"\nstartxref\n999999\n%%EOF\n"


def v18b():
    """Corrupt: bad stream length (runs past end of object)."""
    b = _Builder()
    content = b"BT /F1 12 Tf 72 720 Td (Truncated) Tj ET"
    _skeleton(b, [4])
    b.add_stream(4, b"", content, length=b"999999")
    b.add(5, _HELV)
    return b.build()


def v18c():
    """Corrupt: unknown filter /LZWDecode."""
    b = _Builder()
    content = b"not really lzw"
    _skeleton(b, [4])
    b.add_stream(4, b"/Filter /LZWDecode", content)
    b.add(5, _HELV)
    return b.build()


def v19():
    """Quote ops: page 2 uses ' (TstarTj) which the REFERENCE cannot render
    (ValueError "Cannot render 'TstarTj' token yet", __init__.py:543) —
    error-envelope parity test: both engines record a page exception,
    CONTINUE (falsy callback return), and leak page 2's pre-exception
    glyphs into page 3's string (the un-cleared txt buffer quirk)."""
    b = _Builder()
    b.add(1, b"<< /Type /Catalog /Pages 2 0 R >>")
    b.add(2, b"<< /Type /Pages /Kids [3 0 R 6 0 R 8 0 R] /Count 3 >>")
    res = b"<< /Font << /F1 5 0 R >> >>"
    for pagenum, ctnum in ((3, 4), (6, 7), (8, 9)):
        b.add(pagenum, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
                       b"/Resources " + res + b" /Contents %d 0 R >>" % ctnum)
    b.add(5, _HELV)
    b.add_stream(4, b"", b"BT /F1 12 Tf 72 720 Td (Page one) Tj ET")
    b.add_stream(7, b"", b"BT /F1 12 Tf 72 720 Td (Before quote) Tj 14 TL (quoted) ' ET")
    b.add_stream(9, b"", b"BT /F1 12 Tf 72 700 Td (Page three) Tj ET")
    return b.build()


def v20():
    """Nested page tree (DFS order over a Pages-inside-Pages split),
    octal escapes in literals, and a second standard font (Times-Roman)."""
    b = _Builder()
    b.add(1, b"<< /Type /Catalog /Pages 2 0 R >>")
    # root Pages: [leaf 3, inner Pages 6]; inner: [leaf 8, leaf 10]
    b.add(2, b"<< /Type /Pages /Kids [3 0 R 6 0 R] /Count 3 >>")
    res = b"<< /Font << /F1 5 0 R /F2 12 0 R >> >>"
    b.add(3, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
             b"/Resources " + res + b" /Contents 4 0 R >>")
    b.add(6, b"<< /Type /Pages /Parent 2 0 R /Kids [8 0 R 10 0 R] /Count 2 >>")
    b.add(8, b"<< /Type /Page /Parent 6 0 R /MediaBox [0 0 612 792] "
             b"/Resources " + res + b" /Contents 9 0 R >>")
    b.add(10, b"<< /Type /Page /Parent 6 0 R /MediaBox [0 0 612 792] "
              b"/Resources " + res + b" /Contents 11 0 R >>")
    b.add(5, _HELV)
    b.add(12, _TIMES)
    b.add_stream(4, b"", b"BT /F1 12 Tf 72 720 Td (\\101\\102\\103 octal) Tj ET")
    b.add_stream(9, b"", b"BT /F2 14 Tf 72 700 Td (Times page) Tj ET")
    b.add_stream(11, b"", b"BT /F1 10 Tf 72 680 Td (\\164ail \\051paren) Tj ET")
    return b.build()


def v21():
    """Graphics-state breadth: gs ExtGState (supported Table-4.8 keys only),
    BDC with INLINE DICT (the P4 arity special case), numeric SCN/scn,
    dash array, v/y curves, W-n clip, and a NONZERO Tr render mode — the
    only variant where the cloned Tr-as-rise position bug (reference
    __init__.py:521 uses s.T.Tr where rise Ts is plausibly intended) is
    actually observable in the glyph y coordinates.

    Deliberately excluded (reference page-exceptions on them, verified):
    SCN/scn with a pattern-name operand, MP, DP, B*/B/b paint ops."""
    b = _Builder()
    res = (b"<< /Font << /F1 5 0 R >> "
           b"/ExtGState << /GS1 6 0 R >> >>")
    content = (b"q /GS1 gs "
               b"[3 2] 0 d 1 j 1 J 4 M /Perceptual ri 1 i "
               b"0.2 0.3 0.4 SCN 0.5 scn "
               b"/OC << /MCID 5 >> BDC "
               b"100 100 m 150 180 120 160 v 200 100 180 120 y h W n "
               b"BT /F1 12 Tf 1 Tr 72 700 Td (Stateful text) Tj ET "
               b"EMC Q "
               b"BT /F1 12 Tf 72 680 Td (After Q) Tj ET")
    _skeleton(b, [4], resources=res)
    b.add_stream(4, b"", content)
    b.add(5, _HELV)
    b.add(6, b"<< /Type /ExtGState /LW 2 /LC 1 /LJ 1 /ML 5 "
             b"/RI /Perceptual /OPM 1 /FL 50 /SM 0.1 /SA true /BM /Normal "
             b"/CA 0.5 /ca 0.5 /AIS false >>")
    return b.build()


def v22():
    """Type0/Identity-H with MULTI-BYTE CIDs (> 0xFF): 2-byte hex grouping,
    high-plane ToUnicode bfrange, W array spanning the high cids, and the
    Identity fallback (chr(cid)) for a cid the CMap does not map."""
    b = _Builder()
    # cids: 0x0141 (mapped by bfrange to Ł..), 0x0152 (mapped), 0x0200
    # (NOT in the CMap → Identity-H fallback chr(0x0200))
    content = b"BT /F1 12 Tf 72 540 Td <014101520200> Tj ET"
    _skeleton(b, [4])
    b.add_stream(4, b"", content)
    b.add(5, b"<< /Type /Font /Subtype /Type0 /BaseFont /FakeCID3 "
             b"/Encoding /Identity-H /DescendantFonts [6 0 R] /ToUnicode 7 0 R >>")
    b.add(6, b"<< /Type /Font /Subtype /CIDFontType2 /BaseFont /FakeCID3 "
             b"/CIDSystemInfo << /Registry (Adobe) /Ordering (Identity) /Supplement 0 >> "
             b"/W [321 [600 610] 338 340 630 512 513 650] >>")
    cm = (b"/CIDInit /ProcSet findresource begin\n"
          b"12 dict begin\nbegincmap\n"
          b"/CMapName /Adobe-Identity-UCS def\n/CMapType 2 def\n"
          b"1 begincodespacerange\n<0000> <FFFF>\nendcodespacerange\n"
          b"1 beginbfchar\n<0141> <0141>\nendbfchar\n"
          b"1 beginbfrange\n<0150> <0160> <0150>\nendbfrange\n"
          b"endcmap\nCMapName currentdict /CMap defineresource pop\nend\nend\n")
    b.add_stream(7, b"", cm)
    return b.build()


def v23():
    """Type1 Helvetica with NO /Widths but PRESET /FirstChar 65 /LastChar 90:
    AFM width synthesis must honor the clipped [A..Z] window, so the width
    stats (avg over A-Z ≈ 700) differ from the full-font stats (≈ 510) and
    the TJ -300 kern sits BETWEEN the two space thresholds (0.5·avg) —
    the extracted text differs depending on which stats are used.  Also the
    regression fixture for the shared width-stat cache purity condition:
    a preset-window font must not populate the BaseFont-keyed cache."""
    b = _Builder()
    content = b"BT /F1 12 Tf 72 720 Td [(AB) -300 (CD)] TJ ET"
    _skeleton(b, [4])
    b.add_stream(4, b"", content)
    b.add(5, b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica "
             b"/FirstChar 65 /LastChar 90 >>")
    return b.build()


VARIANTS = {
    'V01': v01, 'V02': v02, 'V03': v03, 'V04': v04, 'V05': v05,
    'V06': v06, 'V07': v07, 'V08': v08, 'V09': v09, 'V10': v10,
    'V11': v11, 'V12': v12, 'V13': v13, 'V14': v14, 'V15': v15,
    'V16': v16, 'V17': v17,
    'V18a': v18a, 'V18b': v18b, 'V18c': v18c,
    'V19': v19, 'V20': v20, 'V21': v21, 'V22': v22, 'V23': v23,
}

# "corrupt" = expected decode_ok=False (incl. V19's in-envelope page
# exception that the reference also cannot render)
CORRUPT = frozenset(('V18a', 'V18b', 'V18c', 'V19'))


def variant_ids(include_corrupt=True):
    ids = sorted(VARIANTS)
    if not include_corrupt:
        ids = [i for i in ids if i not in CORRUPT]
    return ids


def build_variant(vid):
    return VARIANTS[vid]()


# ---------------------------------------------------------------------------
# Hostile payloads: small documents whose work is not bounded by their size

def xobject_fanout(depth):
    """A page that draws form XObject X0, where each Xk draws Xk+1 twice
    and X<depth> shows one glyph: 2**(depth + 1) content streams rendered
    from ~190 bytes per level (every Do resolves against the page's
    resources, so nothing recurses into itself)."""
    b = _Builder()
    names = b" ".join(b"/X%d %d 0 R" % (k, 10 + k) for k in range(depth + 1))
    _skeleton(b, [4], resources=b"<< /Font << /F1 5 0 R >> /XObject << "
              + names + b" >> >>")
    b.add_stream(4, b"", b"/X0 Do")
    b.add(5, _HELV)
    for k in range(depth + 1):
        body = (b"/X%d Do /X%d Do" % (k + 1, k + 1) if k < depth
                else b"BT /F1 12 Tf 72 720 Td (A) Tj ET")
        b.add_stream(10 + k, b"/Type /XObject /Subtype /Form "
                     b"/BBox [0 0 612 792] /Resources << /Font << /F1 5 0 R"
                     b" >> >>", body)
    return b.build()


def flate_bomb(megabytes):
    """A one-page document whose Flate content stream inflates to
    ``megabytes`` MiB of blanks after one Tj (~1 KB per MiB)."""
    b = _Builder()
    _skeleton(b, [4])
    b.add_stream(4, b"/Filter /FlateDecode", zlib.compress(
        b"BT /F1 12 Tf 72 720 Td (A) Tj ET " + b" " * (megabytes << 20), 9))
    b.add(5, _HELV)
    return b.build()


def _drawn_xobject(body, draws):
    """A page that draws one form XObject ``draws`` times, its content
    stream ``body`` Flate-compressed."""
    b = _Builder()
    _skeleton(b, [4], resources=b"<< /Font << /F1 5 0 R >> "
              b"/XObject << /X0 10 0 R >> >>")
    b.add_stream(4, b"", b" ".join([b"/X0 Do"] * draws))
    b.add(5, _HELV)
    b.add_stream(10, b"/Type /XObject /Subtype /Form /BBox [0 0 612 792] "
                 b"/Resources << /Font << /F1 5 0 R >> >> "
                 b"/Filter /FlateDecode", zlib.compress(body, 9))
    return b.build()


def glyph_repeat(kib, draws):
    """An XObject showing one ``kib`` KiB literal, drawn ``draws`` times:
    ``kib`` × 1,024 × ``draws`` glyphs from ~1 KB plus ~1 KB per MiB."""
    return _drawn_xobject(b"BT /F1 12 Tf 72 720 Td (" + b"A" * (kib << 10)
                          + b") Tj ET", draws)


def content_repeat(megabytes, draws):
    """An XObject of ``megabytes`` MiB of blanks after one Tj, drawn
    ``draws`` times: ``megabytes`` × ``draws`` MiB of content to lex."""
    return _drawn_xobject(b"BT /F1 12 Tf 72 720 Td (A) Tj ET "
                          + b" " * (megabytes << 20), draws)
