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
1; Z embeds in Q by a retag sharing F.  :func:`make` reads ints, bools and
numpy integers into F in one C pass of ``struct.pack``, read in place, and
a list of integer strings by one ``int`` map into that pass; only a list
holding another kind of value is coerced value by value.  ``values`` is
built on first read and cached.  An L wider than ``_MAX_SCALE_BITS``
would make every F value as wide, so such a function stores its
``Fraction``s, with no L.  Sums and scalar multiples run on F, in int64
behind an exact gate.

f * g = (F * G) / (L_f L_g), so both domains multiply on the one
convolution kernel of :mod:`arithring.kernels`: over int64 when its
overflow gate passes, and over int32 operands, widened back to an int64
F, when a whole product passes it at 2^30; else on residues modulo a few
primes with a CRT rebuild when both operands are dense
(:mod:`arithring.crt`, loaded on the first such product), else over
``object``; the ``object`` kernel takes the sparser operand cut after
its last nonzero value.  A division reads the divisor's rank r and lead
off its store and solves over Z on F, in blocks that grow by a factor
1 + 1/r (a relaxed solve; van der Hoeven, "Relax, but don't be too
lazy", JSC 2002).  A block whose product would take the CRT is solved
in residues: per prime one kernel call gives the residual mod p, and
Garner's step rebuilds the quotient once, in int64 when it fits, with
no big-int residual or division.  Any other block takes one product on
the kernel and divides its residual by the lead.  The inverse of f is
the quotient of epsilon by f.  Over Q the dividend is first scaled by a
power of the divisor's integer lead, so every division is exact; only a
``Fraction`` store takes the solve on ``Fraction``s.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import struct
import sys
from collections.abc import Mapping, Set
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import kernels
from .core import Domain, RingError, _quoted

Coefficient = Union[int, Fraction]


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
            shown = _quoted(text)
            if str(exc).startswith("Exceeds the limit"):
                shown += (
                    f": more digits than Python's int string limit "
                    f"{sys.get_int_max_str_digits()} (PYTHONINTMAXSTRDIGITS)"
                )
            raise NotInDomain(f"cannot parse coefficient {shown}") from exc
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
        num, den, domain = self._num, self._den, Domain(self.domain)
        if den is None:  # `num` holds the values
            den = 1 if domain is Domain.Z else _denominator(num)
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
        object.__setattr__(self, "domain", domain)
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
    # each would be read as its characters, its bytes, its keys or in set order
    if isinstance(values, (str, bytes, bytearray, Mapping, Set)):
        raise TypeError(f"make takes f(1), f(2), ... in order, not a {type(values).__name__}")
    vals = values if isinstance(values, (list, tuple)) else list(values)
    try:  # values with __index__ are the identity case of _coerce
        packed = _pack(vals)
    except TypeError:
        domain = Domain(domain)
        packed = _integer_strings(vals)
        if packed is None:
            return ArithFunc(domain, [_coerce(v, domain) for v in vals])
    return ArithFunc(domain, packed, 1)


def _integer_strings(values: Sequence) -> Optional[np.ndarray]:
    """The store of `values` when each is a str that ``int`` reads, else None.
    What ``int`` reads, ``Fraction`` reads as the same integer, save "_",
    which ``Fraction`` refuses before Python 3.11, so "_" is left to _coerce."""
    if set(map(type, values)) != {str} or "_" in "".join(values):
        return None
    try:
        ints = list(map(int, values))
    except ValueError:  # _coerce reads or refuses each value, with its message
        return None
    return _pack(ints)


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
    domain = Domain(domain)
    if f.domain is domain:
        return f
    if domain is Domain.Q or f._den == 1:
        return ArithFunc(domain, f._num, 1)
    den = f._den or 1  # canonical store: F mod L, or f mod 1 without L, is nonzero somewhere
    n = int(np.flatnonzero((f._num.astype(object) if den >> 63 else f._num) % den)[0])
    raise NotInDomain(f"{f[n]} is not an integer (domain Z)")


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
    product and partial sum; else object, not narrowed.  A lone term with
    c = 1 is its own array, and a later term with c = -1 one subtraction."""
    if (any(arr.dtype == object for arr, _ in terms)
            or sum(abs(c) * max(1, _peak(arr)) for arr, c in terms) >> 63):
        terms = [(arr.astype(object, copy=False), c) for arr, c in terms]
    (out, c), *rest = terms
    out = out if c == 1 else out * c
    for arr, c in rest:
        out = out - arr if c == -1 else out + (arr if c == 1 else arr * c)
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
    """The integers `values` as a 1-indexed store array, int64 when they all fit,
    else object; TypeError for a value without ``__index__``, such as a float."""
    try:  # one C conversion, read in place
        return np.frombuffer(struct.pack(f"{len(values) + 1}q", 0, *values), np.int64)
    except struct.error:  # a value past int64, or one with no __index__
        return np.array((0, *map(operator.index, values)), object)


def _peak(arr: np.ndarray) -> int:
    """max |value| of an integer array, as an exact int; 0 when it is empty."""
    return max(int(arr.max(initial=0)), -int(arr.min(initial=0)))


def _limbs_peak(limbs: list) -> int:
    """A bound on max |value| of the integers of int64 limbs of 62 bits
    (:func:`arithring.crt.to_limbs`), exact for one limb: |top 2**s + low|
    < (|top| + 1) 2**s, as 0 <= low < 2**s."""
    return (_peak(limbs[-1]) + (len(limbs) > 1)) << 62 * (len(limbs) - 1)


def _first_mismatch(f: ArithFunc, g: ArithFunc) -> Optional[int]:
    """First index where f and g differ: on F over one denominator, else on values."""
    if f._den == g._den:
        n = min(len(f), len(g)) + 1
        differ = np.flatnonzero(f._num[1:n] != g._num[1:n])
        return int(differ[0]) + 1 if differ.size else None
    return next((i for i, (x, y) in enumerate(zip(f.values, g.values), 1) if x != y), None)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def _operand(arr: np.ndarray):
    """(arr, max |value|): a 1-indexed store array as an operand of the Z routes."""
    return arr, _peak(arr)


def _fits(pa, pb, n: int) -> bool:
    """The product of two operands at n passes the int64 gate."""
    (arr_a, max_a), (arr_b, max_b) = pa, pb
    # the gate alone would pass an object operand beside an all-zero one, at max 0
    return (object not in (arr_a.dtype, arr_b.dtype)
            and kernels.convolution_fits_i64(max_a, max_b, n))


def _crt_plan(pa, pb, n: int):
    """(bound, primes) when the product of two operands at n takes the CRT, else None.

    It does when the int64 gate fails, both operands have more than 2 *
    isqrt(n) nonzero values, and bound = max_a max_b 2 isqrt(n), which
    bounds every output, needs at most ``crt.MAX_PRIMES`` primes.
    """
    s2 = 2 * math.isqrt(n)
    # pb first: the quotient of are_associates, a block's pb, is the sparse one
    if _fits(pa, pb, n) or any(np.count_nonzero(arr) <= s2 for arr, _ in (pb, pa)):
        return None
    from . import crt  # loaded on the first product that takes it

    bound = pa[1] * pb[1] * s2
    primes = crt.primes_for(n, bound)
    return None if primes is None else (bound, primes)


def _product(pa, pb, n: int, lo: int = 0) -> np.ndarray:
    """The product of two operands on lo+1..n, zero on 0..lo, exact on one kernel.

    The int64 kernel when the gate passes; a whole product (lo = 0) that
    also passes it at ``kernels.I32_SAFE`` runs on int32 operands, which
    halves the bytes each strided pass moves, and returns int64, so every
    store stays int64.  A block (lo > 0) stays int64: three more numpy
    calls per block cost more than its short passes save.  Else the kernel
    modulo a few primes with a CRT rebuild when :func:`_crt_plan` finds
    them, and otherwise the kernel over ``object`` with the sparser
    operand (`pa` on a tie) as a, cut after its last nonzero value: its
    zeros skip their row passes, and its zero tail every column pass.  The
    cast keeps int64 operands past the gate out of the int64 accumulator.
    """
    (arr_a, max_a), (arr_b, max_b) = pa, pb
    if _fits(pa, pb, n):
        if lo == 0 and kernels.convolution_fits_i64(max_a, max_b, n, kernels.I32_SAFE):
            # the int32 copies are freed before the widened result is made
            out = kernels.convolve_i64(arr_a.astype(np.int32), arr_b.astype(np.int32))
            return out.astype(np.int64)
        return kernels.convolve_i64(arr_a, arr_b, lo)
    if plan := _crt_plan(pa, pb, n):
        from . import crt

        return crt.product(pa, pb, n, *plan, lo)
    nz_a, nz_b = np.flatnonzero(arr_a), np.flatnonzero(arr_b)
    if nz_b.size < nz_a.size:
        arr_a, nz_a, arr_b = arr_b, nz_b, arr_a
    end = int(nz_a[-1]) + 1 if nz_a.size else 1
    return kernels.convolve_i64(arr_a[:end].astype(object), arr_b, lo)


def convolve(f: ArithFunc, g: ArithFunc) -> ArithFunc:
    """Dirichlet product at the common bound: (F * G) / (L_f L_g).

    F * G takes the route :func:`_product` picks: the int64 kernel, the
    kernel per CRT prime, or the kernel over ``object``, about N log N
    multiply-adds, never per-index trial division.  An operand that stores
    no L runs the kernel on ``object`` arrays of the values.
    """
    n = _common(f, g)
    if f._den is None or g._den is None:
        F, G = (np.array((0, *h.values[:n]), object) for h in (f, g))
        return ArithFunc(f.domain, kernels.convolve_i64(F, G)[1:].tolist())
    F, G = _operand(f._num[: n + 1]), _operand(g._num[: n + 1])
    return ArithFunc(f.domain, _product(F, G, n), f._den * g._den)


# ---------------------------------------------------------------------------
# inverse and division: triangular solves
# ---------------------------------------------------------------------------


def _divide_solve(a: Sequence, b: Sequence, n: int, lead_idx: int, domain: Domain):
    """Solve b * g = a over domain; (quotient values, None) or (None, witness)."""
    lead = b[lead_idx - 1]
    solve_top = n // lead_idx
    # exact division by lead: a product over Q, divmod over Z
    inv_lead = Fraction(1) / lead if domain is Domain.Q else None
    # d = lead_idx only changes the index just solved, which is never read again
    nonzero = [i + 1 for i in range(lead_idx, n) if b[i]]
    g = [0] * (solve_top + 1)
    res = [0, *a]  # res[idx] = a(idx) - (b * g)(idx) over the g solved so far
    for idx in range(1, n + 1):
        if idx % lead_idx == 0:
            m = idx // lead_idx
            gm, rem = divmod(res[idx], lead) if inv_lead is None else (res[idx] * inv_lead, 0)
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
    return tuple(g[1:]) + (0,) * (n - solve_top), None


# A rank-r solve takes a head 1..c sequentially, c the first block end at
# most _HEAD r^2 (:func:`_block_ends`), as a block past c holds about c / r
# indices.  By `divide` at N = 10^5 with the head at 16 r^2 and blocks grown
# forward from it (values in -9..9, lead 1, best of 3, 4 interleaved runs on
# 2 cores): at r = 30 heads of 8 r^2 to 32 r^2 tied and beat 4 r^2 and 64
# r^2; at r = 100, 4 r^2 and 8 r^2 took 0.12-0.19 s and 16 r^2 (all of N)
# 0.09-0.11 s; at r <= 5 all tied.
_HEAD = 16


def _residue_block(a, pa, pb, lead: int, lo: int, r: int):
    """One block of :func:`_block_solve` in residues: (q, bad), or None.

    `a` is the dividend on the block lo+1..top, and the operands pa = rest
    and pb = g give `below` from lo.  None unless their product takes the
    CRT (:func:`_crt_plan`).  `a` enters as int64 limbs
    (:func:`arithring.crt.to_limbs`).  The residual a - below is at most B
    = max|a| + the product's bound in size; None when B needs more than
    ``crt.MAX_PRIMES`` primes or one of them divides the lead.
    """
    top = len(pb[0]) - 1
    if (plan := _crt_plan(pa, pb, top)) is None:
        return None
    from . import crt

    limbs = crt.to_limbs(a)
    bound = _limbs_peak(limbs) + plan[0]
    primes = crt.primes_for(top, bound)
    if primes is None or any(lead % p == 0 for p in primes):
        return None
    return crt.solve_block(limbs, pa[0], pb[0], lead, lo, r, bound, primes)


def _product_block(a, pa, pb, lead: int, lo: int, r: int):
    """One block of :func:`_block_solve` on the exact product: (q, bad).

    `below` is the product of pa and pb from lo on one of its routes;
    the residual a - below must be 0 at each non-multiple of r, and at k =
    r j, g(j) is its quotient by the lead, with no remainder.
    """
    below = _product(pa, pb, len(pb[0]) - 1, lo)
    res = _combine((a, 1), (below[lo + 1 :], -1))
    at = res[-(lo + 1) % r :: r]  # at the multiples of r in the block
    if lead >> 63 not in (0, -1):
        at = at.astype(object)
    # a +-1 lead skips the % and rem != 0 passes: a 41-bit inverse at N = 8e4 saves 5-8 %
    q, rem = (_combine((at, lead)), 0) if lead in (1, -1) else (at // lead, at % lead)
    bad = res != 0 if r > 1 else np.zeros(len(res), bool)  # r = 1: only multiples
    bad[-(lo + 1) % r :: r] = rem != 0
    return q, bad


def _block_ends(n: int, r: int) -> list:
    """The ends of :func:`_block_solve`'s head and blocks at rank r, ascending.

    Built back from n: below each end t, the least c with (r + 1)(c // r +
    1) - 1 >= t is r (t // (r + 1)), and the first c <= _HEAD r^2 ends the
    head.  At r = 1 the ends are n, n // 2, n // 4, ...  Blocks grown
    forward from min(n, _HEAD r^2) instead leave a short last block, which
    costs nearly the 2 isqrt(top) kernel passes of a full one.  As t -> r
    (t // (r + 1)) is monotone, each end counted from n is at most the
    forward end as many steps from n: no more blocks, and no block's top,
    so no block's kernel pass count, exceeds the forward one's.
    """
    ends = [n]
    while ends[-1] > _HEAD * r * r:
        ends.append(r * (ends[-1] // (r + 1)))
    return ends[::-1]


def _block_solve(a: np.ndarray, b: np.ndarray, n: int, r: int):
    """Solve b * g = a over Z for 1-indexed arrays, b of rank r, in blocks.

    With g known on 1..m, m = c // r, every divisor d > r of an index k <
    (r + 1)(m + 1) leaves a cofactor k / d <= m.  So one product of b
    without b(r) and g(1..m), from lo = c, gives the residual a - (b - b(r)
    nu_r) * g on the whole block (c, (r + 1)(m + 1) - 1].  It must be 0 at
    each non-multiple of r; at k = r j, dividing it by b(r) gives g(j).
    A block whose product would take the CRT is solved in residues
    (:func:`_residue_block`), with no big-int product, residual or
    division.  With |R| <= B for its residual R, and primes whose product
    P exceeds 2 B: at a non-multiple, R = 0 exactly when R is 0 mod every
    prime.  At k = r j, let y in [0, P) be R / b(r) + T mod every prime,
    T = B // |b(r)|.  Then b(r) divides R exactly when y <= 2 T, and g(j)
    = y - T: if b(r) q = R, then |q| <= T and y = q + T; if y <= 2 T,
    then b(r) (y - T) and R agree mod P and are at most B < P / 2 in
    size, so they are equal.  Any other block takes the exact product
    (:func:`_product_block`).  The first index where either test fails is
    the witness, as in :func:`_divide_solve`, which solves the head.  The
    head and block ends come from :func:`_block_ends`, built back from n so
    that the last block ends at n; at r = 1 the blocks are (t // 2, t].
    """
    ends = iter(_block_ends(n, r))
    c = next(ends)
    q, witness = _divide_solve(a[1 : c + 1].tolist(), b[1 : c + 1].tolist(), c, r, Domain.Z)
    if q is None:
        return None, witness
    q, g, m, peak = np.array(q[: c // r], object), np.zeros(n + 1, np.int64), 0, 0
    lead, rest = b.item(r), b[: n + 1].copy()
    rest[r] = 0  # b(1..r - 1) are 0 already
    rest, widest = _operand(rest)  # once; its max bounds every prefix
    while True:  # store g(m + 1..c // r), then solve the block past c
        with contextlib.suppress(OverflowError):  # g turns object only past int64
            q = q.astype(np.int64, copy=False)
        g = g.astype(np.result_type(g, q), copy=False)
        g[m + 1 : c // r + 1] = q
        peak, m = max(peak, _peak(q)), c // r
        if c == n:
            return g, None
        top = next(ends)
        block = a[c + 1 : top + 1], (rest[: top + 1], widest), (g[: top + 1], peak), lead, c, r
        q, bad = _residue_block(*block) or _product_block(*block)
        if (wrong := np.flatnonzero(bad)).size:
            return None, c + 1 + int(wrong[0])
        c = top


def _solve(a: ArithFunc, b: ArithFunc):
    """Solve b * g = a at the common bound; (quotient, None) or (None, witness).

    b has rank r and lead B(r) at the common bound, or NoVisibleRank.  An
    operand storing Fractions takes the Fraction solve on its values, else
    :func:`_block_solve` runs over Z on a = A / L_a and b = B / L_b, each
    block in residues modulo a few primes or on one exact product.  Over Q
    with |B(r)| != 1 it divides s A by B, s = |B(r)|^K: q(m) reads q(m')
    only for m' <= min(m - 1, rm / (r + 1)), so with K the longest such
    chain from N / r every division by B(r) is exact, and a residual at a
    non-multiple of r is only multiplied by s.  The quotient is (L_b / (L_a
    s)) q, which the constructor reduces.
    """
    n = _common(a, b)
    A, B, den = a._num[: n + 1], b._num[: n + 1], a._den
    r = 1 if B[1] else int(np.argmax(B != 0))  # as in rank: argmax 0 means none
    if not r:
        raise NoVisibleRank("divisor is zero at the common bound")
    if a._den is None or b._den is None:
        q, witness = _divide_solve(a.values[:n], b.values[:n], n, r, a.domain)
        return (None, witness) if q is None else (ArithFunc(a.domain, q), None)
    lead = abs(B.item(r))
    if a.domain is Domain.Q and lead != 1:
        m, s = n // r, 1
        while m:  # one factor of |B(r)| per step of the chain from N / r
            m, s = min(m - 1, r * m // (r + 1)), s * lead
        A, den = _combine((A, s)), den * s
    q, witness = _block_solve(A, B, n, r)
    if q is not None and b._den != 1:
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
    return _solve(epsilon(len(f), f.domain), f)[0]


def divide(num: ArithFunc, den: ArithFunc) -> DivisionResult:
    """Solve den * g = num exactly at the common bound N.

    :func:`_solve` reads den's rank b and lead and picks the route.  The
    quotient is determined on m <= floor(N / b) by a triangular solve and
    taken as zero above; every index of the residual den * g - num is
    checked.  Returns the quotient, or the first failing index as the
    non-divisibility witness.  A zero numerator gives the zero quotient.
    """
    return DivisionResult(*_solve(num, den))


def are_associates(f: ArithFunc, g: ArithFunc) -> bool:
    """True when f and g divide each other at the common bound.

    Decided by one division: f and g are associates exactly when their
    ranks r are equal and g divides f with a unit quotient.  The quotient
    of a division at equal ranks has lead f(r) / g(r): nonzero over Q, and
    +-1 over Z once leads of unequal magnitude are rejected, so it is a
    unit whenever the division succeeds.
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
    return divide(fa, ga).divisible
