"""Exact ``'%.{P}g'`` text of float64 arrays, computed in numpy.

:func:`decompose` rounds each value to P significant digits as ``'%.{P}g'``
does, giving a sign, a P-digit integer mantissa and a decimal exponent. It
scales by at most two exact powers of ten (10**j is a float for j <= 22), so
the scaled value is off by about one ulp at most: for P <= 12 an ulp of a
P-digit value is at most 2**-13, an eighth of ``GUARD``.
Python's own ``%`` formats what this cannot round safely: values whose
scaled fraction lies within ``GUARD`` of a half (a possible tie, which
Python rounds on the exact binary value), and nonzero values that are
subnormal, non-finite or out of the two powers' reach (below ~1e-33 or
above ~1e55 at P = 12, so every three-digit exponent). A 3001-value trace
sends a few values that way.

:func:`rows` lays each value's text out by the ``%g`` rules as one row of a
NUL-padded uint8 character matrix; :func:`run_rows` builds rows of the same
texts by formatting one value of each run of equal roundings and repeating
its text. :func:`text` joins such matrices side by side and drops the NULs.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

GUARD = 2.0**-10  # scaled values this close to a rounding tie go to Python's %
# values per pass: keeps the temporaries of a 100,000-point trace near those of %
CHUNK = 4096

_TIMES = np.array([float(10 ** max(k, 0)) for k in range(-22, 23)])  # exact powers of ten
_OVER = _TIMES[::-1].copy()  # element k + 22: 10**-k for k < 0, else 1


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ASCII digits of 0..9999 (one uint32 each) and their trailing zeros
    (4 for 0), and per exponent e in [-99, 99] (element e + 99) its ``e``, sign
    and two digits (one uint32). Built on first use, so commands that format
    no trace skip it."""
    four = np.empty((10, 10, 10, 10, 4), np.uint8)  # [a, b, c, d]: the digits "abcd"
    for i in range(4):
        four[..., i] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - i))
    zero = four == ord("0")
    trailing = zero[..., 3] * (1 + zero[..., 2] * (1 + zero[..., 1] * (1 + zero[..., 0])))
    four = four.reshape(10000, 4)
    exponent = np.empty((199, 4), np.uint8)
    exponent[:, 0] = ord("e")
    exponent[:, 1] = np.where(np.arange(199) < 99, ord("-"), ord("+"))
    exponent[:, 2:] = four[np.abs(np.arange(-99, 100)), 2:]
    return (four.view(np.uint32).ravel(), trailing.ravel().astype(np.uint8),
            exponent.view(np.uint32).ravel())


def _scale(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``a * 10**k`` for |k| <= 22, rounded once: multiply or divide by an exact power."""
    return a * _TIMES[k + 22] / _OVER[k + 22]


def decompose(values, precision: int):
    """``(negative, mantissa, exponent, exact)`` of ``'%.{precision}g' % v`` per value.

    Where ``exact`` holds, the text shows ``(-1)**negative * mantissa *
    10**(exponent - precision + 1)``, with a ``precision``-digit integer
    mantissa, or a zero of that sign (mantissa and exponent 0). Elsewhere
    mantissa and exponent are 0 and mean nothing.
    """
    v = np.asarray(values, dtype=float)
    lo, hi = 10 ** (precision - 1), 10**precision
    with np.errstate(all="ignore"):  # log10 and casts of zero, inf and nan
        a = np.abs(v)
        normal = (a >= sys.float_info.min) & (a <= sys.float_info.max)
        exponent = np.where(normal, np.floor(np.log10(a)), 0.0).astype(np.int64)
        k = precision - 1 - exponent
        k1 = np.minimum(np.maximum(k, -22), 22)
        s = _scale(a, k1)
        k2 = k - k1
        exact = normal & (np.abs(k2) <= 22)
        if k2.any():  # values of order 1e-22 in real traces need the second power
            s = _scale(s, np.minimum(np.maximum(k2, -22), 22))
        mantissa = np.rint(s)
        exact &= np.abs(s - np.floor(s) - 0.5) > GUARD
        # log10 may be one low near a power of ten, and rounding may carry into
        # a new digit (9.9999999999995 -> 10): either way the mantissa reads hi
        carry = mantissa == hi
        exponent += carry
        mantissa[carry] = lo
        mantissa[~exact] = 0.0
        exponent[~exact] = 0
        return np.signbit(v), mantissa.astype(np.int64), exponent, exact | (a == 0.0)


@functools.cache
def _layout(precision: int) -> np.ndarray:
    """Per layout code, the byte mask that turns a row of :func:`rows` into its text.

    Code ``(x + 4) * P + nd - 1`` is fixed notation with exponent x in [-4, P)
    and nd significant digits; x = P stands for exponent notation. The mask
    keeps (0xFF) the sign, the digits shown and, in exponent notation, the
    exponent, and it writes the ``0.000`` prefix of x < 0 and the point into
    columns that hold 0xFF.
    """
    p = precision
    x = np.repeat(np.arange(-4, p + 1), p)[:, None]
    nd = np.tile(np.arange(1, p + 1), p + 5)[:, None]
    fixed = x < p
    point = np.where(fixed, x, 0)
    point[nd <= point + 1] = -1  # no digit after it: no point
    digit = np.arange(p)
    mask = np.zeros((len(x), 2 * p + 10), np.uint8)
    mask[:, 0] = 0xFF
    leading = np.where(fixed & (x < 0), 1 - x, 0)  # "0." and -x - 1 zeros
    mask[:, 1:6] = np.frombuffer(b"0.000", np.uint8) * (np.arange(5) < leading)
    mask[:, 6 : 6 + 2 * p : 2] = 0xFF * (digit < np.where(fixed, np.maximum(nd, x + 1), nd))
    mask[:, 7 : 7 + 2 * p : 2] = ord(".") * (digit == point)
    mask[:, -4:] = 0xFF * ~fixed
    return mask


def rows(values, precision: int, end: bytes) -> np.ndarray:
    """``'%.{precision}g' % v`` of each value, NUL-padded, then ``end``: one uint8 row each.

    A row holds the sign, ``0.000``, each digit with a slot for a point after
    it, and ``e``, the exponent's sign and two digits; the layout mask of the
    value's notation and digit count keeps the characters of its text. Rows
    are made ``CHUNK`` values at a time.
    """
    v = np.asarray(values, dtype=float)
    out = np.empty((len(v), 2 * precision + 10 + len(end)), np.uint8)
    for start in range(0, len(v), CHUNK):
        _fill(out[start : start + CHUNK], v[start : start + CHUNK], precision, end)
    return out


def _fill(out: np.ndarray, v: np.ndarray, p: int, end: bytes) -> None:
    """Write the :func:`rows` of ``v`` at precision ``p`` into ``out``."""
    n, w = len(v), 2 * p + 10
    negative, mantissa, exponent, exact = decompose(v, p)
    digits4, trailing4, exponents = _digit_tables()
    groups = -(-p // 4)
    parts = np.empty((groups, n), np.int64)  # four digits each, most significant first
    rest = mantissa
    for g in range(groups - 1):
        parts[g], rest = np.divmod(rest, 10 ** (4 * (groups - 1 - g)))
    parts[-1] = rest
    trailing, zeros = trailing4[parts[-1]], parts[-1] == 0
    for part in parts[-2::-1]:
        trailing += zeros * trailing4[part]
        zeros &= part == 0
    significant = np.maximum(p - trailing.astype(np.int64), 1)  # a zero shows one digit
    fixed = (exponent >= -4) & (exponent < p)
    code = np.where(fixed, exponent + 4, p + 4) * p + significant - 1
    out[:] = 0xFF
    out[:, 0] = negative * np.uint8(ord("-"))
    digits = np.ascontiguousarray(digits4[parts].T).view(np.uint8)
    out[:, 6 : 6 + 2 * p : 2] = digits[:, 4 * groups - p :]
    out[:, w - 4 : w] = exponents[exponent + 99].view(np.uint8).reshape(n, 4)
    out[:, :w] &= _layout(p)[code]
    out[:, w:] = np.frombuffer(end, np.uint8)
    inexact = np.flatnonzero(~exact)
    if len(inexact):
        out[inexact] = _pack(v[inexact], p, w, end)


def _pack(values: np.ndarray, precision: int, width: int, end: bytes) -> np.ndarray:
    """``'%.{precision}g' % v`` of each value by Python, as rows of a NUL-padded
    uint8 matrix ``width`` wide (at least ``precision + 7``), ``end`` after each."""
    spec = f"%.{precision}g"
    texts = [spec % x for x in values.tolist()]
    block = np.empty((len(texts), width + len(end)), np.uint8)
    block[:, :width] = np.array(texts, f"S{width}").view(np.uint8).reshape(-1, width)
    block[:, width:] = np.frombuffer(end, np.uint8)
    return block


def run_rows(values, precision: int, end: bytes) -> np.ndarray:
    """Rows of the texts :func:`rows` gives, formatting with ``%`` only the
    first value of each run of values with equal roundings and repeating its
    text for the rest of the run.

    Cheaper than :func:`rows` where runs are long, as on the flat tails of a
    plotted trace; a value Python must format always starts a run of its own.
    """
    v = np.asarray(values, dtype=float)
    negative, mantissa, exponent, exact = decompose(v, precision)
    starts = np.ones(len(v), bool)
    starts[1:] = ((mantissa[1:] != mantissa[:-1]) | (exponent[1:] != exponent[:-1])
                  | (negative[1:] != negative[:-1]) | ~exact[1:] | ~exact[:-1])
    first = np.flatnonzero(starts)
    block = _pack(v[first], precision, precision + 7, end)  # -1.23457e-308 at most
    return np.repeat(block, np.diff(first, append=len(v)), axis=0)


def squeeze(block: np.ndarray) -> np.ndarray:
    """``block``'s rows with their NULs dropped, left-aligned and NUL-padded to
    the longest: the same :func:`text` from fewer bytes, for a block used often."""
    lengths = np.count_nonzero(block, axis=1)
    out = np.zeros((len(block), lengths.max(initial=0)), np.uint8)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.frombuffer(
        block.tobytes().translate(None, b"\0"), np.uint8)
    return out


def text(*blocks: np.ndarray) -> str:
    """The rows of ``blocks`` (uint8 matrices of one height) side by side, NULs
    dropped, joined ``CHUNK`` rows at a time."""
    return "".join(
        np.hstack([b[i : i + CHUNK] for b in blocks]).tobytes().translate(None, b"\0")
        .decode("ascii") for i in range(0, len(blocks[0]), CHUNK))
