"""Stream filters: FlateDecode with optional PNG-Up predictor.

Re-derivation of the reference's decoder (pypdfproc/decoder/flate.py and
pdf.py:454-477; SURVEY.md D1-D3).  Behavior preserved:

* Only ``FlateDecode`` is supported as a /Filter value; anything else (a
  name like /LZWDecode or a filter array) raises ValueError.
* Predictor 0 (absent) → plain zlib inflate; predictor 12 (PNG Up) is
  un-predicted; all other predictor values raise NotImplementedError.
* Inflate raises zlib's own errors, truncation included, and ignores bytes
  after the stream's end, as ``zlib.decompress`` does.  Unlike the
  reference it stops at ``MAX_INFLATE`` bytes and raises BudgetExceeded,
  so a Flate bomb fails its document without filling the worker's memory.
* PNG-Up validation mirrors the reference: data must be a whole number of
  (Columns+1)-wide rows; every row's leading predictor byte except row 0's
  must equal 2.

The un-predictor here is vectorized (numpy modular column-sum) instead of
the reference's per-byte Python loop — same output bytes.
"""

import zlib

import numpy as np

from .cos import BudgetExceeded

__all__ = ['inflate', 'flate_decode', 'png_up', 'decode_stream', 'MAX_INFLATE']

MAX_INFLATE = 1 << 24     # bytes one Flate stream may inflate to (16 MiB)


def inflate(data):
    """``zlib.decompress(data)``, stopped past ``MAX_INFLATE`` bytes."""
    d = zlib.decompressobj()
    out = d.decompress(data, MAX_INFLATE + 1)
    if len(out) > MAX_INFLATE:
        raise BudgetExceeded('Flate stream inflates past %d bytes'
                             % MAX_INFLATE)
    if not d.eof:
        raise zlib.error('Error -5 while decompressing data: incomplete or '
                         'truncated stream')
    return out


def flate_decode(data, parms):
    """zlib-inflate ``data`` (bytes) then undo the predictor per ``parms``."""
    uncomp = inflate(data)
    if 'Predictor' not in parms:
        raise KeyError("Expected 'Predictor' key in parameters")
    pred = parms['Predictor']
    if pred == 0:
        return uncomp
    if pred == 12:
        return png_up(uncomp, parms)
    raise NotImplementedError("Flate predictor %d not implemented" % pred)


def png_up(data, parms):
    """Undo the PNG Up predictor (row-wise cumulative sum mod 256)."""
    if 'Columns' not in parms:
        raise ValueError("Cannot do PNG Up predictor without Columns")
    col = parms['Columns']
    if len(data) % (col + 1) != 0:
        raise ValueError(
            "Expected a multiple of col+1 bytes (%d) but got %d bytes"
            % (col + 1, len(data)))
    arr = np.frombuffer(data, dtype=np.uint8).reshape(-1, col + 1)
    # Row 0's predictor byte is not validated (reference flate.py:102-104)
    if arr.shape[0] > 1 and not np.all(arr[1:, 0] == 2):
        raise ValueError("Row predictor value expected to be 2: indicates change in predictor algorithm")
    out = np.add.accumulate(arr[:, 1:], axis=0, dtype=np.uint8)
    return out.tobytes()


def decode_stream(d, raw):
    """Decode a stream payload (latin-1 str) per its dictionary ``d``.

    Mirrors PDFStreamBase.Stream (reference pdf.py:454-477): only
    FlateDecode; missing DecodeParms means predictor 0.  Returns a latin-1
    str (the reference's internal text convention).
    """
    if 'Filter' in d:
        if d['Filter'] == 'FlateDecode':
            parms = d.get('DecodeParms')
            if parms is None:
                parms = {'Predictor': 0}
            dat = bytes(raw, 'latin-1')
            return flate_decode(dat, parms).decode('latin-1')
        raise ValueError("Unknown filter for content stream: %s" % (d['Filter'],))
    return raw
