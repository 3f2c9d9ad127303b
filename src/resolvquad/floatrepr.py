"""``float.__repr__`` and ``int.__str__`` of whole numpy columns, as ASCII.

``history.csv`` and ``summary.json`` print floats as ``repr`` does: the
shortest decimal string that reads back as the same double, in fixed notation
for decimal exponents from -4 to 15 and in ``1.5e-05`` form otherwise.  One
``repr`` call per cell is most of a writer's time, so :func:`repr_cells` finds
the digits of a whole column at once with Ryu's shortest round-trip digit
search (Ulf Adams, "Ryu: fast float-to-string conversion", PLDI 2018) on
``uint64`` arrays, and lays them out with one table-driven gather.

Only Ryu's common case is vectorized.  The cells it does not cover fall
back to ``float.__repr__`` one by one: zeros, infinities and NaN, and the
cells where Ryu's bounds may end in decimal zeros (its slow branch): every
magnitude from ``2**50`` to ``2**131`` (about 1e15 to 3e39), and values
with few significant bits such as ``0.5`` or ``3.0``.  About 4% of random
bit patterns fall back; solver output seldom does.

Each cell is a row of bytes: the text with NUL bytes between and after its
characters, which ``bytes.translate(None, b"\\0")`` drops.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 24  # bytes of the longest repr: "-1.2345678901234567e-308"

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_POW10 = 10 ** np.arange(20, dtype=np.uint64)

# A float cell's source row is 7 uint32 words: [sign, NUL, NUL, d0], the
# digits d1..d16 in four words (17 digits right-aligned, leading zeros
# kept), [".", "0", "e", NUL] and the exponent [sign, hundreds or NUL,
# tens, units].  These are its byte offsets.
_SIGN, _DOT, _ZERO, _E, _NUL, _EXP = 0, 20, 21, 22, 23, 24
_SRC_WORDS = 7


def _log10_pow2(e: int) -> int:
    return (e * 78913) >> 18


def _log10_pow5(e: int) -> int:
    return (e * 732923) >> 20


def _pow5_bits(e: int) -> int:
    return ((e * 1217359) >> 19) + 1


@functools.cache
def _ryu_tables() -> tuple:
    """Per biased binary exponent (0..2047): Ryu's multiplier ``M / 2**j``
    split into its integer part and a 128-bit fraction, the decimal
    exponent of ``vr``, and a mask whose ``&`` with ``mv`` is 0 where the
    cell falls back."""
    pow5_inv = [(1 << (_pow5_bits(q) - 1 + 125)) // 5 ** q + 1
                for q in range(342)]
    pow5 = []
    for i in range(326):
        shift = _pow5_bits(i) - 125
        pow5.append(5 ** i >> shift if shift >= 0 else 5 ** i << -shift)
    whole, frac_hi, frac_lo, e10, zeros = [], [], [], [], []
    for biased in range(2048):
        e2 = (biased or 1) - 1077
        if e2 >= 0:
            q = _log10_pow2(e2) - (e2 > 3)
            mul = pow5_inv[q]
            j = q - e2 + 125 + _pow5_bits(q) - 1
            e10.append(q)
            # Ryu tests mv, mp and mm for factors 5**q here
            mask = 0 if q <= 21 else 2 ** 64 - 1
        else:
            q = _log10_pow5(-e2) - (-e2 > 1)
            i = -e2 - q
            mul = pow5[i]
            j = q - _pow5_bits(i) + 125
            e10.append(q + e2)
            # vr is exact, and may end in decimal zeros, when 2**q divides mv
            mask = 0 if q <= 1 else (1 << q) - 1 if q < 63 else 2 ** 64 - 1
        frac = (mul & ((1 << j) - 1)) << (128 - j)
        whole.append(mul >> j)
        frac_hi.append(frac >> 64)
        frac_lo.append(frac & (2 ** 64 - 1))
        zeros.append(0 if biased == 2047 else mask)
    as_u64 = functools.partial(np.array, dtype=np.uint64)
    return (as_u64(whole), as_u64(frac_hi), as_u64(frac_lo),
            np.array(e10, np.int64), as_u64(zeros))


@functools.cache
def _text_tables() -> tuple:
    """The words and byte layouts that :func:`repr_cells` and
    :func:`int_cells` gather from."""
    # the four ASCII digits of 0..9999, one uint32 each
    digits4 = ((np.arange(10000)[:, None] // 10 ** np.arange(3, -1, -1)) % 10
               + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    # [sign, NUL, NUL, d0] for sign + and -, d0 from 0 to 9
    sign_words = np.frombuffer(b"".join(
        s + b"\0\0" + bytes([ord("0") + d]) for s in (b"\0", b"-")
        for d in range(10)), np.uint32)
    # the exponent word of each decimal exponent e, at e + 400
    exponent_words = np.frombuffer(b"".join(
        (b"-" if e < 0 else b"+") + (b"%02d" % abs(e)).rjust(3, b"\0")
        for e in range(-400, 400)), np.uint32)
    # the source byte of each output byte for 17 digit counts n times 21
    # forms: fixed notation with the decimal point after digit decpt, decpt
    # from -3 to 16, and exponent form
    layouts = np.full((17, 21, WIDTH), _NUL, np.intp)
    for n in range(1, 18):
        digits = list(range(_DOT - n, _DOT))
        for form in range(21):
            decpt = form - 3
            if form == 20:
                row = ([_SIGN, digits[0]]
                       + ([_DOT] + digits[1:] if n > 1 else [])
                       + [_E] + list(range(_EXP, _EXP + 4)))
            elif decpt <= 0:
                row = [_SIGN, _ZERO, _DOT] + [_ZERO] * -decpt + digits
            elif decpt < n:
                row = [_SIGN] + digits[:decpt] + [_DOT] + digits[decpt:]
            else:
                row = [_SIGN] + digits + [_ZERO] * (decpt - n) + [_DOT, _ZERO]
            layouts[n - 1, form, :len(row)] = row
    tail = np.frombuffer(b".0e\0", np.uint32)[0]
    return (digits4, sign_words, exponent_words, layouts.reshape(-1, WIDTH),
            tail)


def _mul128(m0, m1, b):
    """``(hi, lo)`` 64-bit words of ``m * b``, ``m = m1 * 2**32 + m0``."""
    b0, b1 = b & _LOW32, b >> _U64(32)
    t00, t01, t10 = m0 * b0, m0 * b1, m1 * b0
    mid = (t00 >> _U64(32)) + (t01 & _LOW32) + (t10 & _LOW32)
    hi = m1 * b1 + (t01 >> _U64(32)) + (t10 >> _U64(32)) + (mid >> _U64(32))
    return hi, (mid << _U64(32)) | (t00 & _LOW32)


def shortest(x: np.ndarray) -> tuple:
    """Ryu's shortest round-trip digits of each float64 in ``x``.

    Returns ``(digits, exponent, fallback)``: ``|x| = digits *
    10**exponent`` with the fewest digits that read back as ``x`` and,
    among those, the nearest to it, for each cell where ``fallback`` is
    false.  ``fallback`` marks zeros, non-finite values and the cells of
    Ryu's trailing-zero branch; their ``digits`` are 0.
    """
    whole, frac_hi, frac_lo, e10, zeros = _ryu_tables()
    bits = np.ascontiguousarray(x, np.float64).view(np.uint64)
    biased = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.intp)
    mant = bits & _U64((1 << 52) - 1)
    mv = np.where(biased > 0, mant | _U64(1 << 52), mant) << _U64(2)
    fallback = (mv & zeros[biased]) == 0
    # vr, vp, vm = floor(m * M / 2**j) for m = mv, mv + 2, mv - 1 - mm_shift,
    # as m * (M >> j) plus the floor of m times the 128-bit fraction f
    a, f_hi, f_lo = whole[biased], frac_hi[biased], frac_lo[biased]
    m0, m1 = mv & _LOW32, mv >> _U64(32)
    p1, fl = _mul128(m0, m1, f_lo)
    q1, q0 = _mul128(m0, m1, f_hi)
    fh = q0 + p1
    vr = mv * a + q1 + (fh < q0)
    # mv * f has the fraction (fh, fl): add 2 f for vp, take c f off for vm
    two_hi = (f_hi << _U64(1)) | (f_lo >> _U64(63))
    two_lo = f_lo << _U64(1)
    carry = f_hi >> _U64(63)
    hi = fh + two_hi
    vp = (vr + _U64(2) * a + carry + (hi < fh)
          + ((hi + (fl + two_lo < fl)) < hi))
    # c = 1 + mm_shift is 1 only at a power of two above the least normal
    one = (mant == 0) & (biased > 1)
    s_hi = np.where(one, f_hi, two_hi)
    b0 = fl < np.where(one, f_lo, two_lo)
    borrow = (((fh < s_hi) | ((fh - s_hi < b0) & b0))
              + np.where(one, _U64(0), carry))
    vm = vr - np.where(one, a, _U64(2) * a) - borrow
    # remove r digits: the largest r with a multiple of 10**r in (vm, vp]
    vp[fallback] = 0
    vm[fallback] = 0
    removed = np.zeros(x.size, np.int64)
    for p in _POW10[1:]:
        more = vp // p > vm // p
        if not more.any():
            break
        removed += more
    # vr / 10**r rounded half up (outside the trailing-zero branch the exact
    # value is never a tie), and up once more where that is vm, which the
    # interval excludes
    d = _POW10[removed]
    digits = (vr + (d >> _U64(1))) // d
    digits += digits == vm // d
    digits[fallback] = 0
    return digits, e10[biased] + removed, fallback


def repr_cells(x: np.ndarray) -> np.ndarray:
    """``(x.size, WIDTH)`` uint8 cells: ``float.__repr__`` of each element
    of the float64 array ``x``."""
    digits4, sign_words, exponent_words, layouts, tail = _text_tables()
    digits, exponent, fallback = shortest(x)
    n = np.searchsorted(_POW10, digits, side="right")
    decpt = exponent + n
    lead = digits // _U64(10 ** 16)
    rest = digits - lead * _U64(10 ** 16)
    src = np.empty((x.size, _SRC_WORDS), np.uint32)
    src[:, 0] = sign_words[np.signbit(x) * 10 + lead.astype(np.intp)]
    hi8 = rest // _U64(10 ** 8)
    for col, group in ((1, hi8), (3, rest - hi8 * _U64(10 ** 8))):
        top = group // _U64(10 ** 4)
        src[:, col] = digits4[top.astype(np.intp)]
        low = group - top * _U64(10 ** 4)
        src[:, col + 1] = digits4[low.astype(np.intp)]
    src[:, 5] = tail
    src[:, 6] = exponent_words[np.clip(decpt + 399, 0, 799)]
    form = np.where((decpt >= -3) & (decpt <= 16), decpt + 3, 20)
    index = layouts[(np.maximum(n, 1) - 1) * 21 + form]
    index += np.arange(0, src.nbytes, _SRC_WORDS * 4)[:, None]
    out = src.view(np.uint8).ravel().take(index)
    for i in np.flatnonzero(fallback).tolist():
        text = float.__repr__(float(x[i])).encode()
        out[i] = np.frombuffer(text.ljust(WIDTH, b"\0"), np.uint8)
    return out


def int_cells(v: np.ndarray) -> np.ndarray:
    """``(v.size, 4 * groups)`` uint8 cells: ``str`` of each non-negative
    integer in ``v``, NUL-padded on the left."""
    digits4 = _text_tables()[0]
    v = np.asarray(v, np.int64)
    groups = max(1, -(-len(str(int(v.max(initial=0)))) // 4))
    out = np.empty((v.size, groups), np.uint32)
    rest = v
    for g in range(groups - 1, -1, -1):
        top = rest // 10000
        out[:, g] = digits4[rest - top * 10000]
        rest = top
    cells = out.view(np.uint8)
    n = np.maximum(np.searchsorted(_POW10, v.astype(np.uint64), "right"), 1)
    cells[np.arange(4 * groups) < (4 * groups - n)[:, None]] = 0
    return cells
