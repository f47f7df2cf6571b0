"""Rows of `%.17g` cells from float64 arrays in one numpy pass, byte for byte.

    >>> rows(([0.1], [-3.3e-5], [0.0]), "closed_form\\n")
    '0.10000000000000001,-3.3000000000000003e-05,0,closed_form\\n'

A cell v with 1e-280 <= |v| < 1e281 is rounded to 17 significant digits,
N = round(|v| 10^(16-k)) with k = floor(log10 |v|), in double-double
arithmetic: 10^p comes from a table (hi, lo) rounded exactly from Python
integers, and |v| hi is split exactly by Veltkamp and Dekker (Dekker 1971),
so the fraction that rounding drops is known to about 1e-14.  k comes from
np.log10 and is corrected by one wherever N falls outside [1e16, 1e17); a
rounding up to 1e17 carries into k.  The digits are laid out by the %g
rules: fixed notation for -4 <= k < 17, d.ddde+XX otherwise, trailing
zeros and a bare point stripped, 0 and -0 for the zeros.  Every other cell,
one not finite or out of that range, or whose dropped fraction lies within
1e-7 of 1/2, such as the exact tie 1e15 + 0.25, is formatted by
"%.17g" % v.

Each cell fills seven 8-byte words padded with NUL, which one
bytes.translate removes at the end: the sign and the "0.000" that leads a
fixed cell below 1; the digits before the point, N // 10^(17-s) for s of
them, right-aligned; the point; the digits after it, left-aligned; and the
exponent.  A column of +0.0 only is "0" in every row and is not formatted.
The tables are built on first use, never at import.  The pass costs about
a hundred array calls whatever the size, so short inputs are faster with %.
"""

from __future__ import annotations

import functools

import numpy as np

_LO, _HI = 1e-280, 1e281   # |v| formatted by the pass; the rest by %
_P_MIN, _P_MAX = -266, 298  # 10^p in the table, p = 16 - k with k one off at either end
_K_MAX = 300                # |k| in the layout table
_SPLIT = 134217729.0        # 2^27 + 1: Veltkamp's split of a float64 into two 26-bit halves
_TIE = 1e-7                 # a dropped fraction this close to 1/2 goes to %
_WORDS = 7                  # 8-byte words in a cell's slot, its comma included


def _words(texts: list[bytes]) -> np.ndarray:
    """Texts of up to 8 bytes, each padded with NUL to one uint64 word."""
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), np.uint64)


@functools.lru_cache(maxsize=None)
def _tables() -> tuple:
    """The tables of the pass, by row:
    - p - _P_MIN: hi, hi's two 26-bit halves and lo of 10^p, hi + lo rounded
      exactly (four arrays);
    - q, 10000 + q, 20000 + q: the ASCII of q = 0 to 9999 as uint32, in
      full, with its leading zeros as NUL but the last digit, and with its
      trailing zeros as NUL;
    - d: the byte of a leading digit d, NUL for 0;
    - k + _K_MAX: the %g layout of decimal exponent k, as uint64: the word
      of the "0.000" that leads a fixed cell below 1, the word of the
      exponent and the comma, s, the count of digits before the point, and
      the byte of the point if any digit follows it;
    - s: the form that each of the four groups of the digits before the
      point takes, 0, 10000 or 20000: in full, from the number's first
      digit, or all NUL before it;
    - n: 10^n as int64, n = 0 to 17."""
    pows = []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            hi = float(10**p)   # int to float rounds correctly, as does int / int below
            lo = float(10**p - int(hi))
        else:
            den = 10**-p
            hi = 1 / den
            num, twos = hi.as_integer_ratio()
            lo = (twos - num * den) / (twos * den)
        pows.append((hi, lo))
    hi, lo = np.array(pows).T
    c = _SPLIT * hi
    hh = c - (c - hi)
    powers = tuple(np.ascontiguousarray(x) for x in (hi, hh, hi - hh, lo))

    full = [b"%04d" % q for q in range(10000)]
    quads = np.frombuffer(b"".join(
        full + [b"%4d" % q for q in range(10000)] + [q.rstrip(b"0").ljust(4) for q in full]
    ).replace(b" ", b"\0"), np.uint32)
    lead_digit = np.frombuffer(b"\x00123456789", np.uint8)

    lead, exp, before, point = [], [], [], []
    for k in range(-_K_MAX, _K_MAX + 1):
        fixed = -4 <= k < 17
        s = (k + 1 if k >= 0 else 0) if fixed else 1
        lead.append(b"\0" + (b"0.000"[: 1 - k] if fixed and k < 0 else b""))
        exp.append((b"" if fixed else b"e%+03d" % k) + b",")
        before.append(s)
        point.append(46 if s else 0)
    layout = np.column_stack([_words(lead), _words(exp), np.array(before, np.uint64),
                              np.array(point, np.uint64)])
    # group j holds digits 1 + 4j to 4 + 4j of 17, and the number starts at digit 17 - s
    forms = np.array([[0 if 17 - s < 1 + 4 * j else 10000 if 17 - s <= 4 + 4 * j else 20000
                       for j in range(4)] for s in range(18)])
    tables = (*powers, quads, lead_digit, layout, forms, 10 ** np.arange(18, dtype=np.int64))
    for table in tables:
        table.flags.writeable = False   # shared by every call
    return powers, *tables[4:]


def _scaled(a: np.ndarray, k: np.ndarray, powers: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a 10^(16-k) as the nearest integer (int64) and the fraction left over, to about
    1e-14: Dekker's exact product a hi plus a lo."""
    row = 16 - _P_MIN - k
    hi, hh, hl, lo = (x.take(row) for x in powers)
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    p = a * hi
    t = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    r = np.rint(t)
    return p.astype(np.int64) + r.astype(np.int64), t - r


def _cells(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slots of cells v, (len(v), _WORDS) uint64, and which cells are left to %."""
    powers, quads, lead_digit, layout, forms, pow10 = _tables()
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= _LO) & (a < _HI)
    a = np.where(fast, a, 1.0)   # a zero, out of range or not finite: N = 1e16, k = 0

    k = np.floor(np.log10(a)).astype(np.intp)
    big, frac = _scaled(a, k, powers)
    floor = big - (frac < 0.0)
    off = (floor < 10**16) | (floor >= 10**17)   # k from log10 is one off
    if off.any():
        i = np.flatnonzero(off)
        k[i] += np.where(floor[i] < 10**16, -1, 1)
        big[i], frac[i] = _scaled(a[i], k[i], powers)
        floor[i] = big[i] - (frac[i] < 0.0)
        off[i] = (floor[i] < 10**16) | (floor[i] >= 10**17)
    carry = big == 10**17
    k += carry
    big[carry] = 10**16
    big[zero] = 0
    slow = ~(fast | zero) | off | (np.abs(frac) > 0.5 - _TIE)

    row = k + _K_MAX
    shape = layout.take(row, axis=0)
    s = shape[:, 2].astype(np.intp)
    # parts[0], the s digits before the point; parts[1], those after it, times 10^s:
    # each 17 digits, the first of them alone and the other 16 in groups of four
    parts = np.empty((2, len(v)), np.int64)
    unit = pow10.take(17 - s)
    np.floor_divide(big, unit, out=parts[0])
    np.multiply(big - parts[0] * unit, pow10.take(s), out=parts[1])
    top = parts // 10**16
    rest = parts - top * 10**16
    hi8 = rest // 10**8
    lo8 = rest - hi8 * 10**8
    groups = np.empty((4, 2, len(v)), np.int64)
    np.floor_divide(hi8, 10**4, out=groups[0])
    np.subtract(hi8, groups[0] * 10**4, out=groups[1])
    np.floor_divide(lo8, 10**4, out=groups[2])
    np.subtract(lo8, groups[2] * 10**4, out=groups[3])
    groups[:, 0] += forms.take(s, axis=0).T
    # after the point, a group followed by zero groups only loses its trailing zeros
    after = groups[:, 1]
    last8 = lo8[1] == 0
    after[0] += (last8 & (after[1] == 0)) * 20000
    after[1] += last8 * 20000
    after[2] += (after[3] == 0) * 20000
    after[3] += 20000

    words = np.empty((len(v), _WORDS), np.uint64)
    words[:, 0] = shape[:, 0]
    words[:, 3] = 0
    words[:, 6] = shape[:, 1]
    # words 1 and 2 hold the groups before the point, 4 and 5 those after it
    quarters = words.view(np.uint32)[:, :12].reshape(len(v), 2, 6)
    quarters[:, :, 2:] = quads.take(groups).transpose(2, 1, 0)
    chars = words.view(np.uint8)
    chars[:, 0] = np.signbit(v) * np.uint8(45)
    chars[:, 7] = lead_digit.take(top[0])
    follows = parts[1] != 0
    chars[:, 24] = shape[:, 3] * follows
    chars[:, 25] = (top[1] + 48) * follows
    return words, slow


def rows(columns, tail: str) -> str:
    """The rows of columns of equal length: each cell as "%.17g" % cell gives it, a
    comma after each, then tail."""
    columns = [np.ascontiguousarray(x, dtype=float) for x in columns]
    n = len(columns[0])
    live = [bool(x.view(np.uint64).any()) for x in columns]   # else +0.0 only, written "0"
    v = np.concatenate([x for x, keep in zip(columns, live) if keep] or [np.zeros(0)])
    words, slow = _cells(v)
    flat = words.view(np.uint8).reshape(-1)
    for i, x in zip(np.flatnonzero(slow).tolist(), v[slow].tolist()):
        text = b"%.17g," % x
        flat[i * 8 * _WORDS:(i + 1) * 8 * _WORDS] = 0
        flat[i * 8 * _WORDS:i * 8 * _WORDS + len(text)] = np.frombuffer(text, np.uint8)

    # a column of +0.0 only takes one word, "0,"; the tail, whole words
    tail = tail.encode()
    tail = np.frombuffer(b"0,".ljust(8, b"\0") + tail.ljust(-(-len(tail) // 8) * 8, b"\0"),
                         np.uint64)
    out = np.empty((n, len(live) + (_WORDS - 1) * sum(live) + len(tail) - 1), np.uint64)
    at = block = 0
    for keep in live:
        if keep:
            out[:, at:at + _WORDS] = words[block * n:(block + 1) * n]
            at, block = at + _WORDS, block + 1
        else:
            out[:, at] = tail[0]
            at += 1
    out[:, at:] = tail[1:]
    return out.tobytes().translate(None, b"\0").decode()
