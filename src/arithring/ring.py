"""Truncated Dirichlet-convolution rings with exact coefficients.

An :class:`ArithFunc` holds the values f(1), ..., f(N) of an arithmetic
function in ``Domain.Q``, the exact rationals (``fractions.Fraction``), or
``Domain.Z``, the arbitrary-precision integers.  Every operation is exact
and every verdict is "at bound N": convolution at index n consults only
indices dividing n, so truncation to 1..N is closed under the ring
operations.  Mixed-bound operands truncate to the smaller bound.  All
values are immutable; operations are pure functions.

A function stores integers F over their least common denominator L, f =
F / L, as FLINT's ``fmpq_poly`` does.  F is one read-only numpy array in
the kernels' 1-indexed form, F[0] = 0: int64 when every value fits, else
``object`` (Python ints), which every route reads as it is.  Over Z, L is
1; Z embeds in Q by a retag sharing F.  ``values`` is built on first read
and cached.  An L wider than ``_MAX_SCALE_BITS`` would make every F value
as wide, so such a function stores its ``Fraction``s, with no L.  Sums and
scalar multiples run on F, in int64 behind an exact gate.

f * g = (F * G) / (L_f L_g), so both domains multiply on one integer
route: the int64 kernel of :mod:`arithring.kernels` when its overflow
gate passes, else the kernel on residues modulo a few primes and a CRT
rebuild, or the exact divisor-pair loop where that costs less, and on
the ``python`` backend, which converts F to lists at its edges.  The
inverse of f is the quotient of epsilon by f, by one triangular solve:
over Z (and over Q for a lead +-1/L) on F, in doubling blocks for a
divisor of rank 1 (a relaxed solve; van der Hoeven, "Relax, but don't be
too lazy", JSC 2002), sequentially otherwise, and on ``Fraction``s for a
wide L and other Q leads.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import kernels, numutil

Coefficient = Union[int, Fraction]


class Domain(Enum):
    """Coefficient domain tag: exact rational field or integer ring."""

    Q = "Q"
    Z = "Z"


class RingError(Exception):
    """Base class for domain/arithmetic failures in this module."""


class NotInDomain(RingError):
    """A value cannot be represented in the requested coefficient domain."""


class DomainMismatch(RingError):
    """Operands live in different coefficient domains."""


class NotAUnit(RingError):
    """Inverse requested for a non-invertible function."""


class NoVisibleRank(RingError):
    """The operation needs a least nonzero index but the function is zero at bound."""


def _coerce(value, domain: Domain) -> Coefficient:
    """Validate and convert one coefficient into `domain`. Exact only; ints stay ints."""
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise NotInDomain(f"cannot parse coefficient {text!r}") from exc
    if isinstance(value, float):
        raise NotInDomain(f"floating point value {value!r} rejected: arithmetic is exact")
    if isinstance(value, Fraction):
        if domain is Domain.Q:
            return value
        if value.denominator == 1:
            return int(value)
        raise NotInDomain(f"{value} is not an integer (domain Z)")
    if not isinstance(value, int):
        try:
            value = operator.index(value)  # numpy integer scalars and friends
        except TypeError:
            raise NotInDomain(f"unsupported coefficient type {type(value).__name__}") from None
    return value


@dataclass(frozen=True)
class Rank:
    """Least index with a nonzero value, and that value; ``Rank(None, None)``
    means zero everywhere at the bound, with no statement about larger bounds."""

    index: Optional[int]
    leading: Optional[Coefficient]

    @property
    def visible(self) -> bool:
        return self.index is not None


NOT_VISIBLE = Rank(None, None)


@dataclass(frozen=True)
class ArithFunc:
    """Arithmetic function truncated to indices 1..N, exact values.

    f(n) = _num[n] / _den: _num is a read-only 1-indexed array, _num[0] = 0,
    int64 when every value fits and else object; _den is the least common
    denominator (1 over Z), or None over Q past _MAX_SCALE_BITS bits, when
    _num holds Fractions.  ``ArithFunc(domain, values)`` finds the store of
    f(1), ..., f(N); ``ArithFunc(domain, F, den)`` divides gcd(den, *F) out
    of a 1-indexed integer array.  The store is canonical: ``==`` and
    ``hash`` compare values.
    """

    domain: Domain
    _num: np.ndarray
    _den: Optional[int] = None

    def __post_init__(self):
        num, den = self._num, self._den
        if den is None:  # `num` holds the values
            den = 1 if self.domain is Domain.Z else _denominator(num)
            if den is None:  # ints among the values become Fractions too
                num = np.array((0, *map(Fraction, num)), object)
            else:
                num = _pack([v.numerator for v in num] if den == 1 else _scaled(num, den))
        elif den != 1:  # Q only: every Z function is built with den = 1
            common = math.gcd(den, *num.tolist())
            if common != 1:  # only an all-zero int64 F has a content past int64
                num = (num.astype(object) if common >> 63 else num) // common
                den //= common
            if den.bit_length() > _MAX_SCALE_BITS:
                num, den = np.array((0, *_rational(num[1:].tolist(), den)), object), None
        if len(num) < 2:
            raise ValueError("an arithmetic function needs at least one value")
        if den is not None and num.dtype == object:  # canonical: int64 when every value fits
            with contextlib.suppress(OverflowError):
                num = num.astype(np.int64)
        num.flags.writeable = False
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArithFunc):
            return NotImplemented
        a, b = self._num, other._num
        return (self.domain is other.domain and self._den == other._den
                and a.dtype == b.dtype and bool(np.array_equal(a, b)))

    def __hash__(self) -> int:
        num = self._num
        key = num.tobytes() if num.dtype == np.int64 else tuple(num.tolist())
        return hash((self.domain, self._den, key))

    @functools.cached_property
    def values(self) -> tuple:
        """f(1), ..., f(N): ints over Z, Fractions over Q."""
        ints = self._num[1:].tolist()
        if self.domain is Domain.Z or self._den is None:
            return tuple(ints)
        return _rational(ints, self._den)

    @property
    def bound(self) -> int:
        return len(self._num) - 1

    def __getitem__(self, n: int) -> Coefficient:
        if not 1 <= n < len(self._num):
            raise IndexError(f"index {n} outside 1..{self.bound}")
        v = self._num.item(n)
        return v if self.domain is Domain.Z or self._den is None else Fraction(v, self._den)

    def __len__(self) -> int:
        return len(self._num) - 1

    def __iter__(self):
        return iter(self.values)

    def __add__(self, other: "ArithFunc") -> "ArithFunc":
        return add(self, other)

    def __sub__(self, other: "ArithFunc") -> "ArithFunc":
        return add(self, scale(other, -1))

    def __neg__(self) -> "ArithFunc":
        return scale(self, -1)

    def __mul__(self, other):
        if isinstance(other, ArithFunc):
            return convolve(self, other)
        return scale(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __repr__(self) -> str:
        head = ", ".join(str(self[n]) for n in range(1, min(len(self), 8) + 1))
        tail = ", ..." if len(self) > 8 else ""
        return f"ArithFunc({self.domain.value}, N={len(self)}, [{head}{tail}])"


@dataclass(frozen=True)
class DivisionResult:
    """Outcome of an exact division attempt at a finite bound."""

    quotient: Optional[ArithFunc]
    witness: Optional[int]

    @property
    def divisible(self) -> bool:
        return self.quotient is not None


def make(values: Iterable, domain: Domain = Domain.Q) -> ArithFunc:
    """Build an ArithFunc from f(1), f(2), ... validating every coefficient."""
    vals = values if isinstance(values, (list, tuple)) else list(values)
    # exact ints are the identity case of _coerce: one C-level type check, one pack
    if set(map(type, vals)) == {int}:
        return ArithFunc(domain, _pack(vals), 1)
    return ArithFunc(domain, [_coerce(v, domain) for v in vals])


def _indicator(r: int, bound: int) -> np.ndarray:
    """The 1-indexed integers 1 at index r, 0 elsewhere on 1..bound (all 0 at r = 0)."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    arr = np.zeros(bound + 1, np.int64)
    arr[r] = r > 0
    return arr


def epsilon(bound: int, domain: Domain = Domain.Q) -> ArithFunc:
    """Convolution identity: 1 at index 1, 0 elsewhere."""
    return ArithFunc(domain, _indicator(1, bound), 1)


def omega(bound: int, domain: Domain = Domain.Q) -> ArithFunc:
    """Additive identity: the all-zero function."""
    return ArithFunc(domain, _indicator(0, bound), 1)


def nu(r: int, bound: int, domain: Domain = Domain.Q) -> ArithFunc:
    """Indicator of a single index r: 1 at r, 0 elsewhere."""
    if bound >= 1 and not 1 <= r <= bound:
        raise ValueError(f"nu index {r} outside 1..{bound}")
    return ArithFunc(domain, _indicator(r, bound), 1)


def with_domain(f: ArithFunc, domain: Domain) -> ArithFunc:
    """Re-tag f into `domain`, sharing F: Z embeds in Q; Q to Z needs L = 1."""
    if f.domain is domain:
        return f
    if domain is Domain.Q or f._den == 1:
        return ArithFunc(domain, f._num, 1)
    return ArithFunc(domain, [_coerce(v, domain) for v in f.values])


def _common(f: ArithFunc, g: ArithFunc) -> int:
    if f.domain is not g.domain:
        raise DomainMismatch(f"{f.domain.value} vs {g.domain.value}")
    return min(len(f), len(g))


def add(f: ArithFunc, g: ArithFunc) -> ArithFunc:
    """Pointwise f + g at the common bound: (F_f L / L_f + F_g L / L_g) / L, L = lcm."""
    n = _common(f, g)
    if f._den is None or g._den is None:
        return ArithFunc(f.domain, [x + y for x, y in zip(f.values, g.values)])
    den = math.lcm(f._den, g._den)
    terms = (f._num[: n + 1], den // f._den), (g._num[: n + 1], den // g._den)
    return ArithFunc(f.domain, _combine(*terms), den)


def scale(f: ArithFunc, c) -> ArithFunc:
    """Pointwise c * f; identical to convolve(c * epsilon, f)."""
    cc = _coerce(c, f.domain)
    if f._den is None:
        return ArithFunc(f.domain, [cc * v for v in f.values])
    return ArithFunc(f.domain, _combine((f._num, cc.numerator)), f._den * cc.denominator)


def _combine(*terms) -> np.ndarray:
    """The exact sum of c * arr over the (arr, c) terms of integer arrays: int64
    when sum of |c| * max(1, max|arr|) < 2**63, which bounds every |c|,
    product and partial sum; else object, not narrowed."""
    if (not kernels.int64_paths_enabled() or any(arr.dtype == object for arr, _ in terms)
            or sum(abs(c) * max(1, _peak(arr)) for arr, c in terms) >> 63):
        terms = [(arr.astype(object), c) for arr, c in terms]
    out = None
    for arr, c in terms:
        part = arr if c == 1 else arr * c
        out = part if out is None else out + part
    return out


def restrict(f: ArithFunc, bound: int) -> ArithFunc:
    """Truncate to the smaller bound 1..M."""
    if not 1 <= bound <= len(f):
        raise ValueError(f"restriction bound {bound} outside 1..{len(f)}")
    if bound == len(f):
        return f
    if f._den is None:
        return ArithFunc(f.domain, f._num[1 : bound + 1].tolist())
    return ArithFunc(f.domain, f._num[: bound + 1], f._den)


def rank(f: ArithFunc) -> Rank:
    """Least n with f(n) != 0, with its leading value; units have rank 1."""
    i = 1 if f._num[1] else int(np.argmax(f._num != 0))  # _num[0] = 0: argmax 0 means none
    return Rank(i, f[i]) if i else NOT_VISIBLE


def is_unit(f: ArithFunc) -> bool:
    """Over Q: f(1) != 0.  Over Z: f(1) is +1 or -1."""
    lead = f._num.item(1)
    return lead != 0 if f.domain is Domain.Q else lead in (1, -1)


def monic(f: ArithFunc) -> ArithFunc:
    """Scale a rational-domain function so its leading value is 1.

    Convenience only: monic form is NOT an invariant of the associate class
    (the unit group is the full set of f(1) != 0 functions)."""
    if f.domain is not Domain.Q:
        raise NotInDomain("monic scaling divides by the leading value; use Domain.Q")
    r = rank(f)
    if not r.visible:
        raise NoVisibleRank("zero function has no leading value")
    return scale(f, Fraction(1) / r.leading)


# ---------------------------------------------------------------------------
# The store: f = F / L with integral F
# ---------------------------------------------------------------------------


# Widest least common denominator L, in bits, that a Q function stores;
# scaling then grows each value by at most one machine word.  f(n) = 1/n
# has L = lcm(1..N), about 1.44 N bits, so N values of F would take O(N^2)
# bits; such functions store Fractions and keep the Fraction loops.
_MAX_SCALE_BITS = 64


def _scaled(values: Sequence[Coefficient], den: int) -> tuple:
    """The integers den * v for v in values; den is a multiple of each denominator."""
    return tuple([v.numerator * (den // v.denominator) for v in values])


def _denominator(values: Sequence[Coefficient]) -> Optional[int]:
    """The lcm L of the denominators, so values = F / L with F integral; None
    as soon as it passes _MAX_SCALE_BITS bits."""
    den = 1
    for d in {v.denominator for v in values}:
        den = math.lcm(den, d)
        if den.bit_length() > _MAX_SCALE_BITS:
            return None
    return den


def _rational(ints: Sequence[int], den: int) -> tuple:
    """The Fractions v / den for v in ints."""
    if den == 1:
        return tuple(map(Fraction, ints))
    return tuple(Fraction(v, den) for v in ints)


def _pack(values: Sequence[int]) -> np.ndarray:
    """The ints `values` as a 1-indexed store array, int64 when they all fit, else object."""
    arr = np.zeros(len(values) + 1, np.int64)
    try:
        arr[1:] = np.fromiter(values, np.int64, count=len(values))
    except OverflowError:
        arr = np.array((0, *values), object)
    return arr


def _peak(arr: np.ndarray) -> int:
    """max |value| of an integer array, as an exact int."""
    return max(int(arr.max()), -int(arr.min()))


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _operand(arr: np.ndarray):
    """(arr, max |value|): a 1-indexed store array as an operand of the Z routes."""
    return arr, _peak(arr)


def _try_convolve_i64(pa, pb, n: int, lo: int = 0) -> Optional[np.ndarray]:
    """The int64 kernel's product of two operands, zero on 0..lo; None when the
    gate fails or on the ``python`` backend."""
    (arr_a, max_a), (arr_b, max_b) = pa, pb
    # the gate alone would pass an object operand beside an all-zero one, at max 0
    if (object in (arr_a.dtype, arr_b.dtype) or not kernels.int64_paths_enabled()
            or not kernels.convolution_fits_i64(max_a, max_b, n)):
        return None
    out = kernels.convolve_i64(arr_a, arr_b)
    out[: lo + 1] = 0
    return out


def _convolve_exact(a: Sequence, b: Sequence, n: int, zero: Coefficient, lo: int = 0) -> tuple:
    """(a * b)(lo+1..n) by the divisor-pair loop, the sparser operand outside (a on a tie)."""
    return tuple(_exact_loop(*((b, a) if b.count(0) > a.count(0) else (a, b)), n, zero, lo))


def _exact_loop(outer: Sequence, inner: Sequence, n: int, zero: Coefficient, lo: int) -> list:
    """(outer * inner)(lo+1..n): each nonzero outer(d) times inner(j) lands at d * j."""
    out = [zero] * (n - lo)
    for d in itertools.compress(range(1, n + 1), outer):
        av = outer[d - 1]
        first = lo // d  # inner[first] makes the first product past lo
        for at, bv in zip(range((first + 1) * d - 1 - lo, n - lo, d), inner[first : n // d]):
            if bv:
                out[at] += av * bv
    return out


# The CRT route takes at most this many primes.  Measured at N = 80 000,
# dense operands, it beats the exact loop up to 13 primes (160-bit values)
# and loses from 16 (200-bit values), where reducing the wide operands
# costs more than the big-int products it replaces.
_CRT_MAX_PRIMES = 16
# One of the CRT's 2 * isqrt(n) kernel passes per prime costs about this
# many divisor pairs of the exact loop (measured, see :func:`_product`).
_CRT_PASS_PAIRS = 8
# Values rebuilt per Python pass, so the temporary lists stay small.
_REBUILD_CHUNK = 1 << 14


@functools.cache
def _crt_prime(h: int, i: int) -> int:
    """The (i + 1)-th largest prime below 2**h, by primality proof."""
    p = (1 << h if i == 0 else _crt_prime(h, i - 1)) - 1
    while not numutil.is_prime(p):
        p -= 1
    return p


def _crt_primes(n: int, bound: int) -> Optional[list]:
    """The fewest primes whose product exceeds 2 * bound, each below 2**h.

    h = (62 - bits(2 * isqrt(n))) // 2, so (p - 1)**2 * 2 * isqrt(n) < 2**62
    and every residue product passes the int64 gate.  None past
    _CRT_MAX_PRIMES.  Each prime is found when first needed, then cached.
    """
    h = (62 - (2 * math.isqrt(n)).bit_length()) // 2
    primes, product = [], 1
    while product <= 2 * bound:
        if len(primes) == _CRT_MAX_PRIMES:
            return None
        primes.append(_crt_prime(h, len(primes)))
        product *= primes[-1]
    return primes


def _convolve_crt(pa, pb, n: int, bound: int, primes: list, lo: int) -> np.ndarray:
    """The product of two operands on lo+1..n, zero on 0..lo, from its residues modulo `primes`.

    Per prime, one numpy ``%`` reduces each array, for either dtype, and
    one kernel call multiplies them.  Each output x lies in [-bound, bound],
    so y = x + bound in [0, 2 * bound] is fixed by its residues.  Garner's
    step writes y in mixed radix, y = v0 + p0 (v1 + p1 (v2 + ...)), digits
    in int64.  Digit pairs form words below 2**62, less bound's own words,
    and one Python pass per word boundary rebuilds the values (von zur
    Gathen & Gerhard, *Modern Computer Algebra*, ch. 5), a chunk at a time
    to bound the lists alive; the whole is packed once.
    """
    digits = []
    for p in primes:
        ra, rb = [(arr % p).astype(np.int64, copy=False) for arr, _ in (pa, pb)]
        y = kernels.convolve_i64(ra, rb)[lo + 1 :]
        y += bound % p
        y %= p
        for q, v in zip(primes, digits):
            y -= v
            y *= pow(q, -1, p)
            y %= p
        digits.append(y)
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
    del digits
    rest = bound
    for word, radix in zip(words, radices):
        word -= rest % radix
        rest //= radix
    out = [0] * lo
    for start in range(0, n - lo, _REBUILD_CHUNK):
        part = slice(start, start + _REBUILD_CHUNK)
        values = words[-1][part].tolist()
        for word, radix in zip(words[-2::-1], radices[-2::-1]):
            values = list(map(operator.add, map(radix.__mul__, values), word[part].tolist()))
        out += values
    return _pack(out)


def _product(pa, pb, n: int, lo: int = 0) -> np.ndarray:
    """The product of two operands on lo+1..n, zero on 0..lo, on the cheapest exact route.

    The int64 kernel when the gate passes, else the kernel modulo k primes
    with a CRT rebuild (:func:`_convolve_crt`), unless more than
    _CRT_MAX_PRIMES primes are needed or the exact loop visits at most
    k * (n + _CRT_PASS_PAIRS * 2 * isqrt(n)) divisor pairs: small n, or an
    operand with few nonzero values, which the loop puts outside (`pa` on a
    tie).  The ``python`` backend takes the loop, on lists.
    """
    if (fast := _try_convolve_i64(pa, pb, n, lo)) is not None:
        return fast
    bound = pa[1] * pb[1] * 2 * math.isqrt(n)
    primes = _crt_primes(n, bound)
    outer, inner = sorted((pa[0], pb[0]), key=np.count_nonzero)
    pairs = int((n // np.flatnonzero(outer)).sum())
    loop = primes is None or pairs <= len(primes) * (n + _CRT_PASS_PAIRS * 2 * math.isqrt(n))
    if loop or not kernels.int64_paths_enabled():
        return _pack([0] * lo + _exact_loop(outer[1:].tolist(), inner[1:].tolist(), n, 0, lo))
    return _convolve_crt(pa, pb, n, bound, primes, lo)


def convolve(f: ArithFunc, g: ArithFunc) -> ArithFunc:
    """Dirichlet product at the common bound: (F * G) / (L_f L_g).

    F * G takes the route :func:`_product` picks: the int64 kernel, the CRT,
    or the divisor-pair loop, about N log N steps, never per-index trial
    division.  An operand that stores no L runs that loop on Fractions.
    """
    n = _common(f, g)
    if f._den is None or g._den is None:
        return ArithFunc(f.domain, _convolve_exact(f.values[:n], g.values[:n], n, Fraction(0)))
    F, G = _operand(f._num[: n + 1]), _operand(g._num[: n + 1])
    return ArithFunc(f.domain, _product(F, G, n), f._den * g._den)


# ---------------------------------------------------------------------------
# inverse and division: triangular solves
# ---------------------------------------------------------------------------


def _divide_solve(a: Sequence, b: Sequence, n: int, lead_idx: int, domain: Domain):
    """Solve b * g = a over domain; (quotient values, None) or (None, witness)."""
    lead = b[lead_idx - 1]
    solve_top = n // lead_idx
    zero = Fraction(0) if domain is Domain.Q else 0
    # exact division by lead is a product over Q, and over Z when lead is +-1
    inv_lead = Fraction(1) / lead if domain is Domain.Q else (lead if lead in (1, -1) else None)
    # d = lead_idx only changes the index just solved, which is never read again
    nonzero = [i + 1 for i in range(lead_idx, n) if b[i]]
    g = [zero] * (solve_top + 1)
    res = [zero, *a]  # res[idx] = a(idx) - (b * g)(idx) over the g solved so far
    for idx in range(1, n + 1):
        if idx % lead_idx == 0:
            m = idx // lead_idx
            if inv_lead is not None:
                gm = res[idx] * inv_lead
            else:
                gm, rem = divmod(res[idx], lead)
                if rem:
                    return None, idx
            g[m] = gm
            if gm:
                for d in nonzero:
                    at = d * m
                    if at > n:
                        break
                    res[at] -= b[d - 1] * gm
        elif res[idx]:
            return None, idx
    return tuple(g[1:]) + (zero,) * (n - solve_top), None


def _block_solve(a: np.ndarray, b: np.ndarray, n: int):
    """Solve b * g = a over Z for 1-indexed arrays, b of rank 1, in blocks (m, 2m].

    On (m, 2m] every divisor d >= 2 of an index leaves a cofactor at most
    m, so one product of b without b(1) and g(1..m), at bound 2m, gives
    a - (b - b(1) epsilon) * g on the block, and dividing by b(1) solves
    it.  The first index whose division leaves a remainder is the witness,
    as in :func:`_divide_solve`.  g fills one preallocated array.
    """
    lead, rest = b.item(1), b[: n + 1].copy()
    rest[1] = 0
    rest, widest = _operand(rest)  # once; its max bounds every prefix
    g, peak, m = np.zeros(n + 1, np.int64), 0, 0  # peak: max |g| so far
    while m < n:
        top = min(2 * m, n) or 1
        res = a[m + 1 : top + 1]
        if m:
            below = _product((rest[: top + 1], widest), (g[: top + 1], peak), top, m)
            res = _combine((res, 1), (below[m + 1 :], -1))
        if lead in (1, -1):
            q = _combine((res, lead))
        else:
            if res.dtype == object or lead >> 63 not in (0, -1):
                res = res.astype(object)
            q, r = res // lead, res % lead
            wrong = np.flatnonzero(r)
            if wrong.size:
                return None, m + 1 + int(wrong[0])
        with contextlib.suppress(OverflowError):  # g turns object only past int64
            q = q.astype(np.int64, copy=False)
        if q.dtype == object:
            g = g.astype(object, copy=False)
        g[m + 1 : top + 1] = q
        peak, m = max(peak, _peak(q)), top
    return g, None


def _solve(a: ArithFunc, b: ArithFunc, lead_idx: int):
    """Solve b * g = a at the common bound; (quotient, None) or (None, witness).

    With a = A / L_a and b = B / L_b the quotient is (L_b / L_a) * q for
    the Z quotient q of A by B, with the same witness.  That runs over Z,
    and over Q when B(lead_idx) = +-1: in blocks for rank 1, else
    sequentially.  Other operands take the Fraction solve on their values.
    """
    n = _common(a, b)
    A, B, den = a._num[: n + 1], b._num[: n + 1], a._den
    if a._den is None or b._den is None or a.domain is Domain.Q and B[lead_idx] not in (1, -1):
        q, witness = _divide_solve(a.values[:n], b.values[:n], n, lead_idx, a.domain)
        den = None
    elif lead_idx == 1 and kernels.int64_paths_enabled():
        q, witness = _block_solve(A, B, n)
    else:
        q, witness = _divide_solve(A[1:].tolist(), B[1:].tolist(), n, lead_idx, Domain.Z)
        q = q and _pack(q)
    if q is not None and den is not None and b._den != 1:
        q = _combine((q, b._den))
    return (None, witness) if q is None else (ArithFunc(a.domain, q, den), None)


def inverse(f: ArithFunc) -> ArithFunc:
    """Convolution inverse g with f * g = epsilon at bound.

    The quotient of epsilon by f, by the solve of :func:`divide`: g(1) =
    1/f(1), g(n) = -1/f(1) * sum of f(d) g(n/d) over divisors d > 1 of n.
    Over Domain.Z the leading value is +-1, so every division is exact.
    """
    if not is_unit(f):
        raise NotAUnit(f"leading value {f[1]} is not invertible in {f.domain.value}")
    return _solve(epsilon(len(f), f.domain), f, 1)[0]


def divide(num: ArithFunc, den: ArithFunc) -> DivisionResult:
    """Solve den * g = num exactly at the common bound N.

    The quotient is determined on indices m <= floor(N / b) (b = rank of
    den) by a triangular solve and taken as zero above that range; every
    index of the residual den * g - num is checked.  Returns the quotient,
    or the first failing index as the non-divisibility witness.  A zero
    numerator is divisible with the zero quotient.  :func:`_solve` picks the route.
    """
    rb = rank(restrict(den, _common(num, den)))
    if not rb.visible:
        raise NoVisibleRank("divisor is zero at the common bound")
    return DivisionResult(*_solve(num, den, rb.index))


def are_associates(f: ArithFunc, g: ArithFunc) -> bool:
    """True when f and g divide each other at the common bound.

    Decided by one division: f and g are associates exactly when their
    ranks are equal and g divides f with a unit quotient.  Over Z a unit
    has leading value +-1, so leading values of unequal magnitude are
    rejected before dividing.
    """
    n = _common(f, g)
    fa, ga = restrict(f, n), restrict(g, n)
    rf, rg = rank(fa), rank(ga)
    if not rf.visible or not rg.visible:
        return rf.visible == rg.visible  # two zero functions are associates
    if rf.index != rg.index:
        return False
    # a unit quotient has lead +-1 over Z, so the leads must agree up to sign
    if f.domain is Domain.Z and abs(rf.leading) != abs(rg.leading):
        return False
    forward = divide(fa, ga)
    return forward.divisible and is_unit(forward.quotient)
