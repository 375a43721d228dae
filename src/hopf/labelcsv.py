"""CSV text: the one module that turns floats into CSV bytes.

Every CSV that ``hopf`` writes holds the bytes of ``csv.writer`` with each float
as ``repr(float(v))``: CRLF line ends, and no quoting, as no float's ``repr``
holds a comma, quote or newline. ``write`` writes a float64 matrix a
``BLOCK_ROWS`` block at a time, so it never exists as one whole string: the label
CSVs ``iterations/{yhat,ytilde}_t{t}.csv`` and ``{yhat,ytilde}_final.csv``, and,
after a ``node`` column, ``train``'s ``predictions_fold{k}.csv``. ``write_rows``
writes the small tables, ``None`` as an empty cell and ints and strings as they
are: ``history_fold{k}.csv``, ``metrics.csv``, ``iterations/metrics.csv``,
``trajectory.csv``, ``timings.csv``, ``fractions.csv``, ``decay.csv`` and
``compare``'s ``report.csv``.

``write`` computes the text with numpy. ``0.0`` and ``1.0`` are constants. A
value x in [1e-307, 1), with E = floor(log10 x) and s = 16 - E, gets the
shortest digits that read back as x, as ``repr`` does (Steele & White 1990;
Adams 2018, "Ryu"): Dekker's two-product splits x * 10**s into a 17-digit
integer F and a fraction, and x's half-ulp times 10**s (half that below a
power of two) bounds a short range of integers around it. The largest k for
which the range holds a multiple of 10**k leaves 17 - k digits, those of the
multiple of 10**k nearest x * 10**s, half to even. 10**s is held as
2**t * (hi + lo), hi and lo doubles, t > 0 only near the top of the double
range. For E >= -6, lo = 0 and every step is exact; below, x * 10**s is known
to within 4e-15, and a value whose range end or rounding tie lies within 2**-40
of an integer goes to ``repr``, as does every other value and any whose F
falls outside [10**16, 10**17). The text is assembled in little-endian 64-bit
words, 32 bytes per value, and every zero byte is dropped.
"""

from __future__ import annotations

import csv

import numpy as np

BLOCK_ROWS = 1024

_WORD = "<u8"
_ONE_BITS = np.float64(1.0).view(np.uint64)
_MANTISSA = np.uint64(2**52 - 1)
_POW10 = 10 ** np.arange(17, dtype=np.int64)
# x's decade E = floor(log10 x) in -307..-1 is its binade's bottom decade or the next, told
# apart by the double nearest 10**(E + 1); a misjudged one puts F outside [10**16, 10**17)
_EXPONENTS = range(-307, 0)
_TENS = np.array([float(f"1e{e + 1}") for e in _EXPONENTS])
_BINADE_DECADE = np.searchsorted(_TENS, np.ldexp(1.0, np.arange(-1023, 0)), side="right")
_FIXED = -4 - _EXPONENTS[0]  # the first decade that repr writes without an exponent


def _words(texts) -> np.ndarray:
    """The byte strings ``texts``, 8 bytes at most, as zero-padded little-endian words."""
    return np.asarray(texts, "S8").view(_WORD).ravel()


def _scale(s: int) -> tuple[float, float, float]:
    """10**s as 2**t * (hi + lo): the doubles 2**t, hi and lo, hi below 2**900."""
    t = max((10**s).bit_length() - 900, 0)  # Dekker's split of hi must not overflow
    hi = 10**s / 2**t  # int / int is rounded once, to the nearest double
    return 2.0**t, hi, (10**s - (int(hi) << t)) / 2**t


def _split(a):
    """Dekker's split of ``a`` into halves of at most 26 significant bits each."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POWER2, _SCALE, _SCALE_REST = map(np.array, zip(*(_scale(16 - e) for e in _EXPONENTS)))
_SCALE_HI, _SCALE_LO = _split(_SCALE)
# F plus the fraction is within 4e-15 of x * 10**s and a range end within 7e-15 of its own
_SLACK = np.where(_SCALE_REST == 0, 0.0, 2.0**-40)

# A value's text takes three words and its separator the fourth. An exact value's first
# word, _HEAD[10 * form + first digit], is the digit after "0." and zeros in a fixed-point
# decade (forms 0-3), before "." in an exponent decade (4), or alone (5); the next two hold
# 16 more digits, the last ``cut`` masked off. An exponent's "e-XX" precedes the separator.
_HEAD = _words(np.char.add(np.char.add([[b"0.000"], [b"0.00"], [b"0.0"], [b"0."], [b""], [b""]],
                                       np.arange(10).astype("S1")), [[b""]] * 4 + [[b"."], [b""]]))
_E_TEXT = np.char.add(b"e-", np.char.zfill((-np.array(_EXPONENTS)).astype("S3"), 2))
_E_TEXT[_FIXED:] = b""  # repr writes decades -4..-1 without an exponent
_EXPONENT = _words(_E_TEXT)
_EXPONENT_BITS = 8 * np.char.str_len(_E_TEXT).astype(np.uint64)
_DIGITS4 = _words((48 + np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10)
                  .astype(np.uint8).view("S4"))
_KEEP_MIDDLE = np.uint64(2**64 - 1) >> 8 * (np.maximum(np.arange(17, dtype=np.uint64), 8) - 8)
_KEEP_TAIL = np.uint64(2**64 - 1) >> 8 * np.minimum(np.arange(17, dtype=np.uint64), 8)
_ZERO, _ONE, _COMMA, _CRLF = _words([b"0.0", b"1.0", b",", b"\r\n"])


def write(path, matrix: np.ndarray, index=None) -> None:
    """Write a 2-D float64 ``matrix`` as CSV, each row after its ``index`` entry if given."""
    names = [f"label_{j}" for j in range(matrix.shape[1])]
    with open(path, "wb") as fh:
        fh.write(",".join(names if index is None else ["node"] + names).encode() + b"\r\n")
        for start in range(0, matrix.shape[0], BLOCK_ROWS):
            rows = _row_words(matrix[start : start + BLOCK_ROWS])
            if index is not None:  # each row's id and a comma, four words, before its values
                ids = np.char.add(np.asarray(index[start : start + BLOCK_ROWS], "S24"), b",")
                rows = np.concatenate([ids.astype("S32").view(_WORD).reshape(-1, 1, 4), rows], 1)
            fh.write(rows.tobytes().translate(None, b"\0"))
            del rows  # the next block is formatted without this one's words


def _row_words(block: np.ndarray) -> np.ndarray:
    """Each value of ``block`` as four words: three of its CSV text, one of its separator."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    x = block.ravel()
    bits = x.view(np.uint64)
    exact = np.flatnonzero((x >= 1e-307) & (x < 1.0))
    exact, head, middle, tail, decade = _shortest_words(x[exact], exact)
    words = np.zeros((x.size, 4), _WORD)
    rows = words.reshape(block.shape[0], block.shape[1], 4)
    rows[:, :, 3] = _COMMA
    rows[:, -1, 3] = _CRLF
    words[exact, 0], words[exact, 1], words[exact, 2] = head, middle, tail
    del head, middle, tail
    if decade.size and decade.min() < _FIXED:
        words[exact, 3] = _EXPONENT[decade] | words[exact, 3] << _EXPONENT_BITS[decade]
    del exact, decade
    words[bits == 0, 0] = _ZERO
    words[bits == _ONE_BITS, 0] = _ONE
    rest = words[:, 0] == 0
    if rest.any():
        reprs = np.array([repr(v) for v in x[rest].tolist()], dtype="S24")
        words[rest, :3] = reprs.view(_WORD).reshape(-1, 3)
    return rows


def write_rows(path, header, rows) -> None:
    """Write ``rows`` under ``header``, or append them if it is None; a float as repr(float(v))."""
    with open(path, "a" if header is None else "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                          for v in row] for row in rows)


def _shortest_words(x: np.ndarray, where: np.ndarray):
    """The ``repr`` digits of the values ``x`` in [1e-307, 1) as three words each.

    Returns the entries of ``where`` (the values' positions) whose text was
    found, with its three words and its decade's index in ``_EXPONENTS``.
    ``repr`` writes the rest: a misjudged decade, shortest digits that are the
    next decade's power of ten, or a range end or tie the slack leaves in doubt.
    """
    decade = _BINADE_DECADE[(x.view(np.uint64) >> np.uint64(52)).astype(np.intp)]
    decade += x >= _TENS[decade]
    # x * 10**s == y * (hi + lo), and y * hi == product + error exactly (Dekker's two-product)
    y = x * _POWER2[decade]
    scale = _SCALE[decade]
    product = y * scale
    y_hi, y_lo = _split(y)
    s_hi, s_lo = _SCALE_HI[decade], _SCALE_LO[decade]
    error = ((y_hi * s_hi - product) + y_hi * s_lo + y_lo * s_hi) + y_lo * s_lo
    del y_hi, y_lo, s_hi, s_lo
    error += y * _SCALE_REST[decade]
    # product is an integer above 2**52 and |error| < 20, so the fraction is exact
    whole = np.floor(error)
    fraction = error - whole
    floor = product.astype(np.int64) + whole.astype(np.int64)
    del product, error, whole
    # x's rounding interval, scaled like x, is floor + (fraction - below, fraction + above).
    # Its ends are odd multiples of 2**(e + s - 1) or 2**(e + s - 2) for x's ulp 2**e, and
    # e + s <= -36: no end is an integer, so an even mantissa's ends never matter
    above = np.spacing(y) * 0.5 * scale
    below = np.where(y.view(np.uint64) & _MANTISSA == 0, 0.5 * above, above)
    del y, scale
    above += fraction
    below -= fraction
    # the first and last integer in the interval, where no slack puts an end in doubt
    slack = _SLACK[decade]
    ok = (floor >= 10**16) & (floor < 10**17)
    ok &= (np.abs(above - np.round(above)) >= slack) & (np.abs(below - np.round(below)) >= slack)
    high = floor + np.floor(above).astype(np.int64)
    low = floor - np.floor(below).astype(np.int64)
    del above, below

    # the shortest digits: the largest cut such that a multiple of 10**cut lies in
    # [low, high]; a cut that fits implies every smaller one does
    cut = np.zeros(x.size, np.intp)  # trailing digits dropped: 17 - cut remain
    active = np.flatnonzero(ok)
    top, bottom = high[active], low[active]
    for k in range(1, 17):
        inside = np.flatnonzero(top // 10**k * 10**k >= bottom)
        if not inside.size:
            break
        active, top, bottom = active[inside], top[inside], bottom[inside]
        cut[active] = k
    del active, top, bottom
    # the nearest multiple of 10**cut to x * 10**s, half to even
    step = _POW10[cut]
    quotient = floor // step
    over = (2 * (floor - quotient * step) - step) + 2 * fraction  # > 0: round up
    digits = (quotient + ((over > 0) | ((over == 0) & (quotient & 1 == 1)))) * step
    ok &= np.abs(over) >= 2 * slack
    del floor, fraction, step, quotient, over, slack
    ok &= (digits >= low) & (digits <= high) & (digits < 10**17)
    del low, high

    ok = np.flatnonzero(ok)
    decade, digits, cut = decade[ok], digits[ok], cut[ok]
    first = digits // 10**16
    form = np.where(decade >= _FIXED, decade - _FIXED, 4 + (cut == 16))
    head = _HEAD[10 * form + first]
    digits -= first * 10**16
    del first, form
    middle, tail = (_DIGITS4[n // 10**4] | _DIGITS4[n % 10**4] << np.uint64(32)
                    for n in (digits // 10**8, digits % 10**8))
    del digits
    middle &= _KEEP_MIDDLE[cut]
    tail &= _KEEP_TAIL[cut]
    return where[ok], head, middle, tail, decade
