"""Truncated Dirichlet-convolution rings with exact coefficients.

An :class:`ArithFunc` holds the values f(1), ..., f(N) of an arithmetic
function in one of two coefficient domains:

* ``Domain.Q`` -- the field of exact rationals (``fractions.Fraction``),
* ``Domain.Z`` -- the ring of arbitrary-precision integers.

Every operation is exact and every verdict is "at bound N": convolution at
index n consults only indices dividing n, so truncation to 1..N is closed
under the ring operations.  Mixed-bound operands truncate to the smaller
bound.  All values are immutable; operations are pure functions.

A function stores what the routes compute on, as FLINT's ``fmpq_poly``
does: integers F over their least common denominator L, f = F / L.  Over
``Domain.Z`` L is 1, and embedding Z in Q is a retag that shares F.  The
``values`` tuple (``Fraction``s over Q) is built on first read and
cached.  A least L wider than 64 bits (``_MAX_SCALE_BITS``; f(n) = 1/n has
L = lcm(1..N)) would make every F value as wide as L, so such a function
stores its ``Fraction``s and no L.

Products are Dirichlet convolution, (f * g)(n) = sum of f(d) g(n/d) over
divisor pairs d * (n/d) = n, and f * g = (F * G) / (L_f L_g), so both
domains run F * G on one integer route: the int64 kernel in
:mod:`arithring.kernels` directly when the overflow gate proves it exact,
and otherwise once per prime on residues modulo a few primes below 2**31,
rebuilt by the Chinese remainder theorem (Garner's mixed-radix step;
von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 5).  The exact
big-int divisor-pair loop runs where the CRT costs more: small bounds, a
sparse operand, operands needing more than ``_CRT_MAX_PRIMES`` primes, and
the ``python`` backend.  The routes read each operand packed once, into
an int64 array when its values fit and else an ``object`` array of ints.

There is one triangular solve: the inverse of f is the quotient of epsilon
by f, and one rule picks its route for both.  A Q solve runs over Z on F
when the divisor's leading value is +-1/L.  The ``Fraction`` loops remain
only for an L wider than 64 bits and for Q leads other than +-1/L.  Over
Z a divisor of rank 1, whatever its leading value, is solved in doubling
blocks (m, 2m], each block one product on the routes above (a relaxed
solve; van der Hoeven, "Relax, but don't be too lazy", JSC 2002).
Divisors of higher rank, the ``Fraction`` solve and the ``python`` backend
keep the sequential solve.
"""

from __future__ import annotations

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
            raise NotInDomain(
                f"unsupported coefficient type {type(value).__name__}"
            ) from None
    return value


@dataclass(frozen=True)
class Rank:
    """Least index with a nonzero value, or the not-visible-at-bound marker.

    ``Rank(None, None)`` means the function is zero everywhere at its bound;
    no statement about larger bounds is implied.
    """

    index: Optional[int]
    leading: Optional[Coefficient]

    @property
    def visible(self) -> bool:
        return self.index is not None


NOT_VISIBLE = Rank(None, None)


@dataclass(frozen=True)
class ArithFunc:
    """Arithmetic function truncated to indices 1..N, exact values.

    f(n) = _num[n - 1] / _den, with _den the least common denominator (1
    over Z), or None over Q when it passes _MAX_SCALE_BITS bits; then
    _num holds the Fractions.  ``ArithFunc(domain, values)`` finds the
    store of `values`; ``ArithFunc(domain, ints, den)`` divides out
    gcd(den, *ints).  The store is canonical, so the generated ``==`` and
    ``hash`` compare values.
    """

    domain: Domain
    _num: tuple
    _den: Optional[int] = None

    def __post_init__(self):
        num, den = self._num, self._den
        if not num:
            raise ValueError("an arithmetic function needs at least one value")
        if self.domain is Domain.Z:
            den = 1
        elif den is None:  # `num` holds the values
            den = _denominator(num)
            if den == 1:
                num = tuple([v.numerator for v in num])
            elif den is not None:
                num = _scaled(num, den)
            else:  # ints among the values become Fractions too
                num = tuple(map(Fraction, num))
        elif den != 1:
            common = math.gcd(den, *num)
            if common != 1:
                num, den = tuple([v // common for v in num]), den // common
            if den.bit_length() > _MAX_SCALE_BITS:
                num, den = _rational(num, den), None
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @functools.cached_property
    def values(self) -> tuple:
        """f(1), ..., f(N): ints over Z, Fractions over Q."""
        if self.domain is Domain.Z or self._den is None:
            return self._num
        return _rational(self._num, self._den)

    @property
    def bound(self) -> int:
        return len(self._num)

    def __getitem__(self, n: int) -> Coefficient:
        if not 1 <= n <= len(self._num):
            raise IndexError(f"index {n} outside 1..{len(self._num)}")
        if self.domain is Domain.Z or self._den is None:
            return self._num[n - 1]
        return Fraction(self._num[n - 1], self._den)

    def __len__(self) -> int:
        return len(self._num)

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
    vals = tuple(values)
    # exact ints are the identity case of _coerce: skip the per-value call
    if not all(type(v) is int for v in vals):
        vals = tuple(_coerce(v, domain) for v in vals)
    return ArithFunc(domain, vals)


def _indicator(r: int, bound: int) -> tuple:
    """The integers 1 at index r, 0 elsewhere, on 1..bound."""
    return (0,) * (r - 1) + (1,) + (0,) * (bound - r)


def epsilon(bound: int, domain: Domain = Domain.Q) -> ArithFunc:
    """Convolution identity: 1 at index 1, 0 elsewhere."""
    _check_bound(bound)
    return ArithFunc(domain, _indicator(1, bound), 1)


def omega(bound: int, domain: Domain = Domain.Q) -> ArithFunc:
    """Additive identity: the all-zero function."""
    _check_bound(bound)
    return ArithFunc(domain, (0,) * bound, 1)


def nu(r: int, bound: int, domain: Domain = Domain.Q) -> ArithFunc:
    """Indicator of a single index r: 1 at r, 0 elsewhere."""
    _check_bound(bound)
    if not 1 <= r <= bound:
        raise ValueError(f"nu index {r} outside 1..{bound}")
    return ArithFunc(domain, _indicator(r, bound), 1)


def with_domain(f: ArithFunc, domain: Domain) -> ArithFunc:
    """Re-tag f into `domain`, sharing F: Z embeds in Q; Q to Z needs L = 1."""
    if f.domain is domain:
        return f
    if domain is Domain.Q or f._den == 1:
        return ArithFunc(domain, f._num, 1)
    return ArithFunc(domain, tuple(_coerce(v, domain) for v in f.values))


def _check_bound(bound: int) -> None:
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")


def _common(f: ArithFunc, g: ArithFunc) -> int:
    if f.domain is not g.domain:
        raise DomainMismatch(f"{f.domain.value} vs {g.domain.value}")
    return min(len(f), len(g))


def add(f: ArithFunc, g: ArithFunc) -> ArithFunc:
    _common(f, g)
    return ArithFunc(f.domain, tuple(x + y for x, y in zip(f.values, g.values)))


def scale(f: ArithFunc, c) -> ArithFunc:
    """Pointwise c * f; identical to convolve(c * epsilon, f)."""
    cc = _coerce(c, f.domain)
    return ArithFunc(f.domain, tuple(cc * v for v in f.values))


def restrict(f: ArithFunc, bound: int) -> ArithFunc:
    """Truncate to the smaller bound 1..M."""
    if not 1 <= bound <= len(f._num):
        raise ValueError(f"restriction bound {bound} outside 1..{len(f._num)}")
    if bound == len(f._num):
        return f
    return ArithFunc(f.domain, f._num[:bound], f._den)


def rank(f: ArithFunc) -> Rank:
    """Least n with f(n) != 0, with its leading value; units have rank 1."""
    for i, v in enumerate(f._num):
        if v:
            return Rank(i + 1, f[i + 1])
    return NOT_VISIBLE


def is_unit(f: ArithFunc) -> bool:
    """Over Q: f(1) != 0.  Over Z: f(1) is +1 or -1."""
    lead = f._num[0]
    if f.domain is Domain.Q:
        return lead != 0
    return lead == 1 or lead == -1


def monic(f: ArithFunc) -> ArithFunc:
    """Scale a rational-domain function so its leading value is 1.

    Convenience normalization only: monic form is NOT an invariant of the
    associate class (the unit group is the full set of f(1) != 0 functions).
    """
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
# scaling then grows each value by at most one machine word.  A wider L
# would grow every value with it: f(n) = 1/n has L = lcm(1..N), about
# 1.44 N bits, so N values of F alone would take O(N^2) bits.  Such
# functions store Fractions and keep the Fraction loops, whose terms stay small.
_MAX_SCALE_BITS = 64


def _scaled(values: Sequence[Coefficient], den: int) -> tuple:
    """The integers den * v for v in values; den is a multiple of each denominator."""
    return tuple([v.numerator * (den // v.denominator) for v in values])


def _denominator(values: Sequence[Coefficient]) -> Optional[int]:
    """The lcm L of the denominators, so values = F / L with F integral.

    None as soon as the lcm passes _MAX_SCALE_BITS bits.
    """
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


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _pack(values: Sequence[int], n: int):
    """(values as a 1-indexed array, max |value|): the operand form of every Z route.

    Index 0 holds 0; the dtype is int64 when every value fits, else object.
    """
    arr = np.zeros(n + 1, np.int64)
    try:
        arr[1:] = np.fromiter(values, np.int64, count=n)
    except OverflowError:
        arr = np.array((0, *values), object)
    return arr, max(int(arr.max()), -int(arr.min()))


def _try_convolve_i64(pa, pb, n: int, lo: int = 0):
    """The int64 kernel's product of two packed operands at lo+1..n; None when the gate fails."""
    (arr_a, max_a), (arr_b, max_b) = pa, pb
    # the gate alone would pass an object operand beside an all-zero one, at max 0
    if object in (arr_a.dtype, arr_b.dtype) or not kernels.convolution_fits_i64(max_a, max_b, n):
        return None
    return tuple(kernels.convolve_i64(arr_a, arr_b)[lo + 1 :].tolist())


def _convolve_exact(a: Sequence, b: Sequence, n: int, zero: Coefficient, lo: int = 0) -> tuple:
    """(a * b)(lo+1..n) by the divisor-pair loop, the sparser operand outside (a on a tie)."""
    return _exact_loop(*((b, a) if b.count(0) > a.count(0) else (a, b)), n, zero, lo)


def _exact_loop(outer: Sequence, inner: Sequence, n: int, zero: Coefficient, lo: int) -> tuple:
    """(outer * inner)(lo+1..n): each nonzero outer(d) times inner(j) lands at d * j."""
    out = [zero] * (n - lo)
    for d in itertools.compress(range(1, n + 1), outer):
        av = outer[d - 1]
        first = lo // d  # inner[first] makes the first product past lo
        for at, bv in zip(range((first + 1) * d - 1 - lo, n - lo, d), inner[first : n // d]):
            if bv:
                out[at] += av * bv
    return tuple(out)


# The CRT route takes at most this many primes.  Measured at N = 80 000,
# dense operands, it beats the exact loop up to 13 primes (160-bit values)
# and loses from 16 (200-bit values), where reducing the wide operands
# modulo each prime costs more than the big-int products it replaces.
_CRT_MAX_PRIMES = 16
# Per prime, the CRT route makes the kernel's 2 * isqrt(n) strided passes
# and O(n) element work; one pass costs about this many divisor pairs of
# the exact loop (measured crossover, see :func:`_product`).
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
    and every residue product passes the int64 gate.  None when more than
    _CRT_MAX_PRIMES are needed.  Each prime is found the first time it is
    needed, never at import, and then cached.
    """
    h = (62 - (2 * math.isqrt(n)).bit_length()) // 2
    primes, product = [], 1
    while product <= 2 * bound:
        if len(primes) == _CRT_MAX_PRIMES:
            return None
        primes.append(_crt_prime(h, len(primes)))
        product *= primes[-1]
    return primes


def _convolve_crt(pa, pb, n: int, bound: int, primes: list, lo: int) -> tuple:
    """The product of packed operands at lo+1..n from its residues modulo `primes`.

    Per prime, one numpy ``%`` reduces each array, in C for either dtype,
    and one kernel call multiplies them.  Each output x lies in [-bound,
    bound], so y = x + bound lies in [0, 2 * bound], below the primes'
    product, and is fixed by its residues.  Garner's step writes y
    in mixed radix, y = v0 + p0 (v1 + p1 (v2 + ...)), every digit in
    int64.  Digit pairs form words below 2**62, bound's own mixed-radix
    words are subtracted from them, and one Python pass per word boundary
    rebuilds the values, a chunk at a time to bound the lists alive.
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
    chunks = []
    for start in range(0, n - lo, _REBUILD_CHUNK):
        part = slice(start, start + _REBUILD_CHUNK)
        values = words[-1][part].tolist()
        for word, radix in zip(words[-2::-1], radices[-2::-1]):
            values = list(map(operator.add, map(radix.__mul__, values), word[part].tolist()))
        chunks.append(values)
    return tuple(itertools.chain.from_iterable(chunks))


def _convolve_z(a: Sequence[int], b: Sequence[int], n: int, lo: int = 0) -> tuple:
    """(a * b)(lo+1..n) over Z: :func:`_product` of the packed operands; the loop on ``python``."""
    if not kernels.int64_paths_enabled():
        return _convolve_exact(a, b, n, 0, lo)
    return _product(_pack(a, n), _pack(b, n), n, lo)


def _product(pa, pb, n: int, lo: int = 0) -> tuple:
    """The product of two packed operands at lo+1..n on the cheapest route that is exact.

    The int64 kernel when the gate passes.  Otherwise the kernel modulo k
    primes with a CRT rebuild (:func:`_convolve_crt`), unless more than
    _CRT_MAX_PRIMES primes are needed or the exact loop visits no more
    divisor pairs than k * (n + _CRT_PASS_PAIRS * 2 * isqrt(n)), which is
    where it is cheaper: small n, or an operand with few nonzero values,
    which the loop puts outside (`pa` on a tie).
    """
    fast = _try_convolve_i64(pa, pb, n, lo)
    if fast is not None:
        return fast
    bound = pa[1] * pb[1] * 2 * math.isqrt(n)
    primes = _crt_primes(n, bound)
    outer, inner = sorted((pa[0], pb[0]), key=np.count_nonzero)
    pairs = int((n // np.flatnonzero(outer)).sum())
    if primes is None or pairs <= len(primes) * (n + _CRT_PASS_PAIRS * 2 * math.isqrt(n)):
        return _exact_loop(outer[1:].tolist(), inner[1:].tolist(), n, 0, lo)
    return _convolve_crt(pa, pb, n, bound, primes, lo)


def convolve(f: ArithFunc, g: ArithFunc) -> ArithFunc:
    """Dirichlet product at the common bound: (F * G) / (L_f L_g).

    F * G takes the route :func:`_product` picks: the int64 kernel, the
    kernel modulo primes with a CRT rebuild, or the divisor-pair loop,
    whose work is the sum of tau(n) for n <= N (about N log N), never
    per-index trial division.  An operand that stores no L runs the same
    loop on Fractions.
    """
    n = _common(f, g)
    if f._den is None or g._den is None:
        return ArithFunc(f.domain, _convolve_exact(f.values[:n], g.values[:n], n, Fraction(0)))
    return ArithFunc(f.domain, _convolve_z(f._num[:n], g._num[:n], n), f._den * g._den)


# ---------------------------------------------------------------------------
# inverse and division: triangular solves
# ---------------------------------------------------------------------------


def _divide_solve(a: Sequence, b: Sequence, n: int, lead_idx: int, domain: Domain):
    """Solve b * g = a over domain; (quotient values, None) or (None, witness)."""
    lead = b[lead_idx - 1]
    solve_top = n // lead_idx
    zero = Fraction(0) if domain is Domain.Q else 0
    # exact division by lead is a product over Q, and over Z when lead is +-1
    if domain is Domain.Q:
        inv_lead = Fraction(1) / lead
    else:
        inv_lead = lead if lead in (1, -1) else None
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


def _block_solve(a: Sequence[int], b: Sequence[int], n: int):
    """Solve b * g = a over Z for b of rank 1, in blocks (m, 2m].

    On (m, 2m] every divisor d >= 2 of an index leaves a cofactor at most
    m, so g there needs g only on 1..m: one product of b without b(1) and
    g(1..m), at bound 2m, gives a - (b - b(1) epsilon) * g on the block,
    and dividing by b(1) solves it.  The first index whose division leaves
    a remainder is the witness, the index :func:`_divide_solve` returns.
    """
    lead = b[0]
    rest, widest = _pack((0, *b[1:n]), n)  # packed once; its max bounds every prefix
    g: list = []
    m = 0
    while m < n:
        top = min(2 * m, n) or 1
        res = a[m:top]
        if m:
            below = _product((rest[: top + 1], widest), _pack(g + [0] * (top - m), top), top, m)
            res = list(map(operator.sub, res, below))
        if lead == 1:
            g += res
        elif lead == -1:
            g += map(operator.neg, res)
        else:
            for idx, x in enumerate(res, m + 1):
                q, r = divmod(x, lead)
                if r:
                    return None, idx
                g.append(q)
        m = top
    return tuple(g), None


def _solve_z(a: Sequence[int], b: Sequence[int], n: int, lead_idx: int):
    """Solve b * g = a over Z: in blocks for rank 1, sequentially otherwise."""
    if lead_idx == 1 and kernels.int64_paths_enabled():
        return _block_solve(a, b, n)
    return _divide_solve(a, b, n, lead_idx, Domain.Z)


def _solve(a: ArithFunc, b: ArithFunc, lead_idx: int):
    """Solve b * g = a at the common bound; (quotient, None) or (None, witness).

    With a = A / L_a and b = B / L_b the quotient is (L_b / L_a) * q for
    the Z quotient q of A by B, with the same witness.  That runs over Z,
    and over Q when B(lead_idx) = +-1.  Any other operands are solved on
    their values by the Fraction solve.
    """
    n = _common(a, b)
    B = b._num[:n]
    over_z = a.domain is Domain.Z or B[lead_idx - 1] in (1, -1)
    if over_z and a._den is not None and b._den is not None:
        q, witness = _solve_z(a._num[:n], B, n, lead_idx)
        if q is not None and b._den != 1:
            q = tuple([b._den * v for v in q])
        den = a._den
    else:
        q, witness = _divide_solve(a.values[:n], b.values[:n], n, lead_idx, a.domain)
        den = None
    return (None, witness) if q is None else (ArithFunc(a.domain, q, den), None)


def inverse(f: ArithFunc) -> ArithFunc:
    """Convolution inverse g with f * g = epsilon at bound.

    The quotient of epsilon by f, by the same solve and route rule as
    :func:`divide`: g(1) = 1/f(1), g(n) = -1/f(1) * sum of f(d) g(n/d)
    over divisors d > 1 of n.  Over Domain.Z the leading value is +-1, so
    every division is exact.
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
    numerator is divisible with the zero quotient.  Over Domain.Q the
    solve runs over Z when den's leading value is +-1/L (see
    :func:`_solve`); over Z a divisor of rank 1 is solved in blocks (see
    :func:`_block_solve`).
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
