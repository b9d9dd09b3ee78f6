"""Tab-separated ``%.12g`` text for float tables, from uint64 word arithmetic.

``write_rows`` writes the bytes of ``np.savetxt(fmt="%.12g",
delimiter="\\t")`` without per-value string work.  A value's correctly
rounded 12 digits come from one product with a power of ten, as exact
integer digits (the approach of Steele & White, PLDI 1990, and Adams's
Ryu, PLDI 2018).  Its text is laid out in a 24-byte slot of three
little-endian ``uint64`` words, padded with NUL and ending in its tab or
newline, and one ``bytes.translate`` per block drops the padding.

Exactness.  ``E`` is the floor of ``log10|x|`` for the binade of ``x``,
corrected by one step where ``|x|`` reaches the next power of ten, and
``q = |x| * 10**(11 - E)`` is one product with a correctly rounded power
of ten.  Its relative error is at most 2**-52, at most 2.3e-4 absolute on
``q <= 1e12``.  So wherever ``|q - rint(q)| < 0.499``, ``rint(q)`` is the
correctly rounded 12-digit integer (``1e12`` carries to the next
exponent).  Every other value goes to Python's own ``"%.12g" % x``:
near-ties, exponent notation (an exponent outside [-4, 11], and the few
binades that can round to one), ``inf`` and ``nan``.  Zero takes the word
path and prints ``0`` or ``-0``.
"""

from __future__ import annotations

import numpy as np

#: rows formatted per block; bounds the temporaries, about 300 bytes a value
BLOCK_ROWS = 512

_U64 = np.uint64
_ONE, _S8, _S52 = (np.array(k, _U64) for k in (1, 8, 52))
_E8, _E4, _TIE = np.array(10 ** 8), np.array(10 ** 4), np.array(0.499)
#: XOR that turns a slot's closing tab into a newline
_NEWLINE = np.array((ord("\t") ^ ord("\n")) << 56, _U64)


def _key_tables():
    """Tables over ``key = (bits - 1) >> 52``, plus 4096 where ``|x|``
    reaches the next power of ten.  The key is the sign and the binade
    ``(2**e, 2**(e+1)]`` of ``|x|``; +0.0 is key 4095 and -0.0 key 2047,
    which +nan shares.  THR holds the bits of ``±10**(e10 + 1)``, with
    ``e10 = floor(log10 2**e)``; PT holds ``±10**(11 - E)``, or nan where
    the word path does not apply; JT holds ``(E + 4) * 26 + sign``, the
    exponent and sign part of a ``_MASKS`` row."""
    thr = np.full(4096, np.iinfo(_U64).max, _U64)
    pt = np.full(8192, np.nan)
    jt = np.zeros(8192, _U64)
    for e in range(-18, 37):  # every binade that can print in fixed notation
        e10 = len(str(2 ** e)) - 1 if e >= 0 else -len(str(2 ** -e))
        for sign in (0, 1):
            key = sign << 11 | (e + 1023)
            thr[key] = np.array(float(f"{'-' * sign}1e{e10 + 1}")).view(_U64)
            for up in (0, 1):
                exp = e10 + up
                if -4 <= exp and e10 <= 10:  # a carry from e10 = 11 would reach 12
                    pt[key + 4096 * up] = float(f"{'-' * sign}1e{11 - exp}")
                    jt[key + 4096 * up] = (exp + 4) * 26 + sign
    pt[4095], jt[4095] = 1.0, 4 * 26
    pt[2047], jt[2047] = -1.0, 4 * 26 + 1
    return thr, pt, jt


def _chunk_table():
    """Per 4-digit chunk (10000 is the carry: "1000", one digit, one decade
    up) in four roles, 10001 entries apart: its ASCII text, and twice its
    significant-digit count within the 12.  Chunk 0 gives digits 1-4 of
    the low word, chunk 1's last digit is digit 8 (the high word's first),
    its first three are digits 5-7, and chunk 2 gives digits 9-12.  The low
    word's last byte and the high word's last three stay free for the
    point and the delimiter."""
    digits = np.vstack([np.indices((10,) * 4, np.uint8).reshape(4, -1).T, [1, 0, 0, 0]])
    zero = (digits == 0).T
    sig = 4 - zero[3] * (1 + zero[2] * (1 + zero[1] * (1 + zero[0])))
    sig[10000] = 14
    text = np.zeros((4, 10001, 8), np.uint8)
    ascii = digits + np.uint8(ord("0"))
    text[0, :, 0:4] = ascii
    text[1, :, 0] = ascii[:, 3]
    text[2, :, 4:7] = ascii[:, :3]
    text[3, :, 1:5] = ascii
    twice = np.zeros((4, 10001), np.uint8)
    for role, before in ((0, 0), (2, 4), (3, 8)):
        twice[role] = np.where(sig > 0, 2 * (sig + before), 0)
    return text.view(_U64).reshape(-1), twice.reshape(-1)


def _mask_table():
    """Words ``[head, or_lo, or_hi, a_lo, a_hi, b_lo, b_hi]`` for row
    ``(E + 4) * 26 + 2 * sig + sign``: exponents -4..11, 0..12 significant
    digits (0 is the value zero) and both signs; then the fallback row,
    whose ``%.12g`` the caller fills.  Digit i sits at byte i of the low
    word, or i + 1 in the high word from i = 7.  ``a`` keeps the digits in
    place; ``b`` keeps those after the point in the point's word, one byte
    up; ``or`` adds the point and the closing tab; ``head`` holds the sign
    and, below 1, ``0.`` and the zeros after it."""
    exp = np.arange(-4, 12)[:, None, None]
    sig = np.arange(13)[None, :, None]
    i = np.arange(12)
    before = np.maximum(exp + 1, 0)  # digits before the point
    kept = i < np.maximum(sig, before)
    point = (exp >= 0) & (np.maximum(sig, before) > before)
    moved = point & (i >= before) & ((i >= 7) == (before >= 8))
    rows = np.zeros((16, 13, 2, 56), np.uint8)
    rows[..., 23] = ord("\t")
    at = i + (i >= 7)
    rows[..., 24 + at] = np.where(kept & ~moved, 0xFF, 0)[:, :, None, :]
    rows[..., 41 + at] = np.where(kept & moved, 0xFF, 0)[:, :, None, :]
    for e in range(-4, 12):
        b = max(e + 1, 0)
        rows[e + 4, point[e + 4, :, 0], :, 8 + b + (b > 7)] = ord(".")
        for sign in (0, 1):
            head = b"-" * sign + (b"0." + b"0" * (-e - 1) if e < 0 else b"")
            rows[e + 4, :, sign, :len(head)] = list(head)
    fallback = np.zeros((1, 56), np.uint8)
    fallback[0, :5] = list(b"%.12g")
    fallback[0, 23] = ord("\t")
    rows = np.vstack([rows.reshape(416, 56), fallback])
    return rows.view(_U64).T.copy()


_THR, _PT, _JT = _key_tables()
_UP = np.array([0, 4096], _U64)
_TEXT, _SIG = _chunk_table()
_ROLES = np.array([[0], [10001], [20002], [30003]])
_MASKS = _mask_table()
_FALLBACK = 416


def write_rows(fh, rows):
    """Write a real 2-D array to the binary file `fh` as the bytes of
    ``np.savetxt(fh, rows, fmt="%.12g", delimiter="\\t")``, in blocks of
    ``BLOCK_ROWS`` rows."""
    rows = np.ascontiguousarray(rows, dtype=float)
    with np.errstate(all="ignore"):  # nan keys, and the casts of their digits
        for start in range(0, len(rows), BLOCK_ROWS):
            block = rows[start:start + BLOCK_ROWS]
            fh.write(_format(block.reshape(-1), block.shape[1]))


def _format(v, n_cols):
    n = v.size
    bits = v.view(_U64)
    key = bits - _ONE
    key >>= _S52
    key += _UP.take((bits >= _THR.take(key)).view(np.uint8))
    q = _PT.take(key)
    q *= v
    digits = np.rint(q)
    q -= digits
    undecided = ~(np.abs(q, out=q) < _TIE)
    # chunk 0, chunk 1 twice, chunk 2: each a row of the 4 roles of _TEXT
    chunks = np.empty((4, n), np.int64)
    c = chunks.reshape(-1)
    np.divmod(digits.astype(np.int64), _E8, out=(c[:n], c[3 * n:]))
    np.divmod(c[3 * n:], _E4, out=(c[n:2 * n], c[3 * n:]))
    c[2 * n:3 * n] = c[n:2 * n]
    chunks += _ROLES
    text = _TEXT.take(c, None, None, "clip")
    sig = _SIG.take(c, None, None, "clip")
    np.maximum(sig[:2 * n], sig[2 * n:], out=sig[:2 * n])
    row = _JT.take(key)
    row += np.maximum(sig[:n], sig[n:2 * n], out=sig[:n])
    row[undecided] = _FALLBACK
    words = _MASKS.take(row, 1)
    w = words.reshape(-1)
    pair = np.empty(4 * n, _U64)  # the low and high words, then both one byte up
    np.bitwise_or(text[:2 * n], text[2 * n:], out=pair[:2 * n])
    np.left_shift(pair[:2 * n], _S8, out=pair[2 * n:])
    pair &= w[3 * n:]
    w[n:3 * n] |= pair[:2 * n]
    w[n:3 * n] |= pair[2 * n:]
    w[2 * n + n_cols - 1::n_cols] ^= _NEWLINE
    out = words[:3].T.tobytes().translate(None, b"\0")
    if b"%" in out:
        out %= tuple(v[undecided].tolist())
    return out
