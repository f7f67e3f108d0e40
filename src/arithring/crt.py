"""Exact products and division blocks from residues modulo a few primes.

:mod:`arithring.ring` sends here each Z product past the int64 gate
whose operands are both dense, and each division block whose product
would come here.  Every prime is below 2**h, h = (62 - bits(2 isqrt(n)))
// 2, so the product of two residues passes the int64 gate of the one
convolution kernel, :func:`arithring.kernels.convolve_i64`.  Garner's
mixed-radix step finds each value's digits in int64, and the values are
rebuilt once (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 5).
``ring`` imports this module on the first such product, so a run whose
products all pass the gate never loads it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
from typing import Optional

import numpy as np

from . import kernels, numutil


# The CRT route takes at most this many primes.  Measured at N = 80 000 on
# dense operands of equal width, each route best of 5-7, interleaved, on
# 2 cores: the CRT's time over the object kernel's had median 0.91 at 8
# primes (values up to 98 bits; CRT faster in 9 of 10 runs) and 1.07 at
# 9 (faster in 3 of 8), where reducing the wide operands costs more than
# the big-int products it replaces.  A 3-bit operand beside a wide one
# crosses over at 8 to 9 primes too.
MAX_PRIMES = 8


@functools.cache
def prime(h: int, i: int) -> int:
    """The (i + 1)-th largest prime below 2**h, by primality proof."""
    p = (1 << h if i == 0 else prime(h, i - 1)) - 1
    while not numutil.is_prime(p):
        p -= 1
    return p


def primes_for(n: int, bound: int) -> Optional[list]:
    """The fewest primes whose product exceeds 2 * bound, each below 2**h.

    h = (62 - bits(2 * isqrt(n))) // 2, so (p - 1)**2 * 2 * isqrt(n) < 2**62
    and every residue product passes the int64 gate.  None past
    MAX_PRIMES.  Each prime is found when first needed, then cached.
    """
    h = (62 - (2 * math.isqrt(n)).bit_length()) // 2
    primes, total = [], 1
    while total <= 2 * bound:
        if len(primes) == MAX_PRIMES:
            return None
        primes.append(prime(h, len(primes)))
        total *= primes[-1]
    return primes


def residue(arr: np.ndarray, p: int) -> np.ndarray:
    """arr mod p in [0, p), as int64.

    On int64, x - (x // p) * p: numpy's int64 ``//`` by a scalar is several
    times faster than its ``%``.  Near -2**63 the product (x // p) * p
    leaves int64 and wraps, but the difference wraps back to the true
    remainder.  An ``object`` array takes Python's ``%``.
    """
    if arr.dtype == object:
        return (arr % p).astype(np.int64)
    q = arr // p
    q *= p
    return np.subtract(arr, q, out=q)


def to_limbs(arr: np.ndarray) -> list:
    """arr as int64 limbs, low first: arr = sum of limbs[i] << 62 i, every
    limb but the top one in [0, 2**62); one limb when arr fits int64.

    One ``&`` and one ``>>`` per limb on ``object``: at 88 bits and 4
    primes, 2 limbs and their residues take about half the time of 4
    ``%`` passes, and the top limb bounds max |value| without a pass.
    """
    limbs = []
    while arr.dtype == object:
        with contextlib.suppress(OverflowError):
            arr = arr.astype(np.int64)
            break
        limbs.append((arr & ((1 << 62) - 1)).astype(np.int64))
        arr = arr >> 62
    return limbs + [arr]


def limbs_residue(limbs: list, p: int) -> np.ndarray:
    """The integers of `limbs` mod p in [0, p), by Horner's rule in int64."""
    e = residue(limbs[-1], p)
    for limb in limbs[-2::-1]:
        e *= (1 << 62) % p
        e += residue(limb, p)
        e = residue(e, p)
    return e


def garner(y: np.ndarray, p: int, primes: list, digits: list) -> None:
    """Garner's step: append the mixed-radix digit, in [0, p), of the values
    whose residues mod p are y and whose digits for the primes before p
    are `digits`; y = v0 + p0 (v1 + p1 (v2 + ...)).  Each digit is reduced
    by :func:`residue`; y is overwritten."""
    for q, v in zip(primes, digits):
        y -= v
        y *= pow(q, -1, p)
        y = residue(y, p)
    digits.append(y)


def rebuild(digits: list, primes: list, offset: int, out: np.ndarray) -> None:
    """Write y - offset into the ``object`` array `out`, y the values with
    mixed-radix `digits`, 0 <= offset < prod(primes).

    Digit pairs form words below 2**62, less offset's own words, and
    Horner's rule over the words rebuilds the values in place on `out`,
    one C-level multiply and add per word (von zur Gathen & Gerhard,
    *Modern Computer Algebra*, ch. 5).  The digits are overwritten.
    """
    words, radices = [], []  # in place: each word reuses its high digit's array
    for j in range(0, len(primes), 2):
        word, radix = digits[j], primes[j]
        if j + 1 < len(primes):
            word = digits[j + 1]
            word *= radix
            word += digits[j]
            radix *= primes[j + 1]
        words.append(word)
        radices.append(radix)
    for word, radix in zip(words, radices):
        word -= offset % radix
        offset //= radix
    out[:] = words[-1]
    for word, radix in zip(words[-2::-1], radices[-2::-1]):
        out *= radix
        out += word


def rebuild_i64(digits: list, primes: list, cap: int) -> np.ndarray:
    """The values y with mixed-radix `digits` in int64 where y <= cap, and
    some value above cap elsewhere; cap < 2**62.

    Horner's rule from the top digit: a high part H that multiplies the
    radix R = prod(primes[:j]) puts y above cap once H > cap // R, so H is
    first cut to cap // R + 1, which keeps y above cap.  Then every step
    stays below cap + 2 p < 2**63.  The digits are overwritten.
    """
    radices = list(itertools.accumulate(primes[:-1], operator.mul, initial=1))
    y = digits[-1]
    for v, p, radix in zip(digits[-2::-1], primes[-2::-1], radices[:0:-1]):
        np.minimum(y, cap // radix + 1, out=y)
        y *= p
        y += v
    return y


def product(pa, pb, n: int, bound: int, primes: list, lo: int) -> np.ndarray:
    """The product of two operands on lo+1..n, zero on 0..lo, from its residues modulo `primes`.

    Per prime, :func:`residue` reduces each array and one kernel call
    multiplies them.  Each output x lies in [-bound, bound], so y = x +
    bound in [0, 2 * bound] is fixed by its residues: :func:`garner`
    finds its digits in int64 and :func:`rebuild` the values x on one
    ``object`` array, which the constructor narrows to int64 when they fit.
    """
    digits = []
    for p in primes:
        ra, rb = [residue(arr, p) for arr, _ in (pa, pb)]
        y = kernels.convolve_i64(ra, rb, lo)[lo + 1 :]
        y += bound % p
        garner(residue(y, p), p, primes, digits)
    out = np.zeros(n + 1, object)
    rebuild(digits, primes, bound, out[lo + 1 :])  # a view: Horner's rule runs on out itself
    return out


def solve_block(limbs, rest, g, lead: int, lo: int, r: int, bound: int, primes: list):
    """The block's (q, bad) from the residues of R = a - rest * g mod `primes`.

    `limbs` holds a (:func:`to_limbs`), |R| <= bound < P / 2, P =
    prod(primes), and no prime divides the lead.  Per prime one kernel
    call gives R mod p, and at each multiple of r, t = R / lead + T mod p,
    T = bound // |lead|; Garner's step gives the y in [0, P) with these
    residues.  q = y - T is rebuilt once, in int64 when 2 T < 2**62
    (:func:`rebuild_i64`), else on ``object`` (:func:`rebuild`).  bad
    flags a non-multiple with a nonzero residue and a multiple with y >
    2 T, as :func:`arithring.ring._block_solve` argues.
    """
    t_off, at = bound // abs(lead), slice(-(lo + 1) % r, None, r)  # at the multiples of r
    bad, digits = np.zeros(len(limbs[0]), bool), []
    for p in primes:
        e = limbs_residue(limbs, p)
        e -= kernels.convolve_i64(residue(rest, p), residue(g, p), lo)[lo + 1 :]
        e = residue(e, p)
        if r > 1:
            bad |= e != 0
        t = e[at] * pow(lead, -1, p)
        t += t_off % p
        garner(residue(t, p), p, primes, digits)
    if 2 * t_off < kernels.I64_SAFE:
        y = rebuild_i64(digits, primes, 2 * t_off)
        bad[at] = y > 2 * t_off
        y -= t_off
        return y, bad
    q = np.empty(len(digits[0]), object)
    rebuild(digits, primes, t_off, q)
    bad[at] = q > t_off
    return q, bad
