"""Exact arithmetic in the quotient rings Q[chi]/I<K>.

For a level K >= 1 write N = 2^K.  The ring studied throughout this package is

    Q[chi] / I<K>,        I<K> = <1 + chi + ... + chi^(N-1)>,

the rational group ring of a cyclic group of order N modulo the ideal
generated by the norm element.  Since chi^N - 1 = (chi - 1)(1 + chi + ... +
chi^(N-1)), the power chi^N equals 1 in the quotient and every element has a
unique canonical representative of degree < N - 1.  All equality in this
module is coefficientwise equality of that canonical representative, with
exact rational coefficients; no floating point is used anywhere.

The distinguished elements are

    f      = (1 + chi) / (1 - chi),
    f_k    = (1 + chi^k) / (1 - chi^k)                     for odd k,
    f'_k   = (1 - chi + chi^2 - ... + chi^(k-1))
             / (1 + chi + ... + chi^(k-1))                 for odd k,

with f_k = f * f'_k and f'_k integral.  The level-l projections pr_l map onto
Q[chi]/<1 + chi^(2^l)> for 0 <= l <= K-1 and jointly determine an element:

    Q[chi]/I<K>  =  prod_{l<K} Q[chi]/<1 + chi^(2^l)>,

one factor per step chi^(2M) - 1 = (chi^M - 1)(chi^M + 1) of the tower.
`crt_reconstruct`, the inverse butterfly, is the only way up.  There are
two ways down, each kept where it measures faster: `project` folds to one
level (`_wrap`), and `_tower` reads all K levels off one descent for the
membership criteria, `valuation._valuations` and `invert`, which inverts
each level in its field by the norm to the level below and comes back up.

Performance note: `RingElement` and `LevelProjection` store an integer
vector over one positive denominator, in lowest terms, and every operation
here runs on those integers.  `Fraction`s appear only at the public
boundary: `_lift` takes them in (the constructors and `make_element`), and
the `coeffs` view, built on first access and cached, hands them out.  Every
dense product goes through `_poly_mul_int`, the package's one integer
convolution: both signed operands packed once into big integers, one
multiply, and for ring products (chi^N = 1) and level products
(chi^(2^l) = -1) a wrap split at digit n by shifts and masks.  Any other
coefficient list is reduced by chi^n = +-1 in one place, `_wrap`:
`make_element` and the family windows by chi^N = 1, and `project` by
chi^(2^l) = -1 to fold one level.  An N-entry vector read in
Q[chi]/(chi^N - 1) becomes canonical in one place too,
`RingElement._from_cyclic`, by subtracting its last entry.  The tower is
walked with whole-list `map`s: `_tower` reads all K levels off one descent
of about 2N additions, and `crt_reconstruct` climbs back up.  `invert`
wraps the descent's parts as `LevelProjection`s (`_projections`); the
valuations of every level and the membership criteria read its raw
numerators over the element's denominator.

The families scale * f'_k f^p (f^2 - 1)^[flag] q(f^2) (1 - chi)^t, f_k and
the 8 f'_k f^m q(f^2) of the r^- search among them, are all built by
`_family_vec`, and never with all N entries unless a public function returns
them.  Their sparse factors, folded by chi^N = 1 when k >= N, are
multiplied out first into a numerator of H terms.  A window is only ever
divided by 1 - chi^(its own class step): every numerator is held at class
step 1 and divided e = max(-net, 0) times by 1 - chi, then held at class
step k (`_Window.restrided(k)`, which reads each new class off the
window's own entries: L entries per class, L the tail length, then L
difference passes) and divided once by 1 - chi^k.  Each division is a
running sum along the classes after adding the multiple of the norm
element that makes the entry sum vanish, which is legitimate because the
norm is zero in the quotient, and it moves k head entries into the tail
classes, each now a polynomial of one degree more in its index.  So the
vector is fixed by its first W = H + k + e*(k - 1) entries (H + 1 when
k = 1; H >= e + k, so the head holds an entry for every division), and with
net <= 0 and t = 0 its head keeps at most one entry.  `_Window` stores
the head before the tail and, per class, the Newton forward differences
of the tail: the last entry, the class sums each division needs (through
sum_{s<L} C(s, j) = C(L, j + 1)) and the division itself then cost
O(H + k*e) operations, not O(N).  The r^- search evaluates each
polynomial this way at (k, m) = (1, 1), and its check at the other three
pairs (`polynomials._confirm_r_minus`) evaluates each one again, from its
own numerator.  Membership in
4 Z[chi]/I<K> of any integer combination needs only the first W entries
and the last one, so the residue rows of the r^- search, the lattice
oracles and the shape remark are W wide: W grows like n, not like
N = 2^(2n+2).  They are read off the head and the Newton
differences as stored, which is a unimodular change of columns from the
entries (`_residue_images`).  When W >= N (small K, or a numerator that
wraps) the vector simply holds all N entries.  Only `element_f`,
`element_f_prime`, `element_f_k` and `evaluate_at_f_squared` step the tail
out to all N entries per call, because they return a `RingElement`, and
`valuation._family_atom` folds all 2^(l+1) of a level-(l+1) window into
level l; `structure.rho_bracket` reads its N entries off slot rows
stepped out once per (d, K, k) and shared (see
`polynomials.reset_polynomial_tables`).  All of this is exact.

Every value is immutable after construction and every function is pure, so
everything here is safe to share across threads without synchronization.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate
from operator import add, sub
from typing import Iterable, NamedTuple, Sequence, Union

__all__ = [
    "RingElement",
    "LevelProjection",
    "make_element",
    "ring_arith",
    "invert",
    "element_f",
    "element_f_prime",
    "element_f_k",
    "conjugate",
    "eigenspace_test",
    "is_in_4Z",
    "project",
    "crt_reconstruct",
    "evaluate_at_f_squared",
    "element_to_text",
    "element_from_text",
]

Rational = Union[int, Fraction]


def _shown(value: object) -> str:
    """repr(value) for an error message; a number whose repr would pass
    Python's int-to-str digit limit is named by its size in bits."""
    try:
        return repr(value)
    except ValueError:
        bits = max(abs(value.numerator).bit_length(),
                   value.denominator.bit_length())
        sign = "negative " if value < 0 else ""
        return f"<{sign}{type(value).__name__} of {bits} bits>"


def _validate_natural(value: int, name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(
            f"{name} must be a non-negative integer, got {_shown(value)}")


def _validate_level(K: int) -> None:
    if not isinstance(K, int) or isinstance(K, bool) or K < 1:
        raise ValueError(
            f"level K must be a positive integer, got {_shown(K)}")


def _is_two_to_the(m: int, level: int) -> bool:
    """m == 2^level, read off the bits of m, so a huge level builds nothing."""
    return m.bit_length() == level + 1 and not m & (m - 1)


def _power(base, exponent: int, one):
    """base ** exponent by square-and-multiply, for any product with unit
    `one`, started at the lowest set bit (2^j costs j products); a bool,
    negative or non-integer exponent raises ValueError."""
    _validate_natural(exponent, "exponent")
    if not exponent:
        return one
    while not exponent & 1:
        base, exponent = base * base, exponent >> 1
    result = base
    while exponent := exponent >> 1:
        base = base * base
        if exponent & 1:
            result = result * base
    return result


def _validate_odd(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1 or k % 2 == 0:
        raise ValueError(f"k must be a positive odd integer, got {_shown(k)}")


def _lift(values: Iterable[Rational]) -> tuple[list[int], int]:
    """Integer numerators over one denominator: values = nums / den.

    This is where `int` and `Fraction` input enters; floats and bools are
    rejected outright.
    """
    values = list(values)
    for c in values:
        if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
            raise TypeError(
                f"expected an int or Fraction, got {type(c).__name__}")
    den = math.lcm(*(c.denominator for c in values))
    return [c.numerator * (den // c.denominator) for c in values], den


@dataclass(frozen=True, init=False)
class _IntVector:
    """Exact coefficients as integers: coefficient j is nums[j] / den.

    The pair is in lowest terms (den > 0, gcd(den, *nums) = 1, zero has
    den = 1), so `==` and `hash` compare (level, den, nums).  Filling the
    `coeffs` cache twice stores equal tuples: sharing across threads stays
    safe.
    """

    level: int
    den: int
    nums: tuple[int, ...]
    _coeffs: tuple[Fraction, ...] | None = field(compare=False, repr=False)

    def _store(self, level: int, nums: Sequence[int], den: int) -> None:
        if den != 1 and (g := math.gcd(den, *nums)) != 1:
            nums = [v // g for v in nums]
            den //= g
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "_coeffs", None)

    @classmethod
    def _from_ints(cls, level: int, nums: Sequence[int], den: int = 1):
        """nums / den (den > 0) reduced to lowest terms, without validation:
        every internal result is built here."""
        self = object.__new__(cls)
        self._store(level, nums, den)
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as `Fraction`s: nums[j] / den."""
        if self._coeffs is None:
            den = self.den
            object.__setattr__(
                self, "_coeffs", tuple(Fraction(v, den) for v in self.nums)
            )
        return self._coeffs

    def _require_same_level(self, other: "_IntVector") -> None:
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} vs {other.level}")

    def _combine(self, other, sign: int):
        if type(other) is not type(self):
            return NotImplemented
        self._require_same_level(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, sign * (den // other.den)
        nums = [x * sa + y * sb for x, y in zip(self.nums, other.nums)]
        return self._from_ints(self.level, nums, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._from_ints(self.level, [-v for v in self.nums], self.den)

    def _scale(self, s):
        if isinstance(s, bool) or not isinstance(s, (int, Fraction)):
            return NotImplemented
        return self._from_ints(
            self.level, [v * s.numerator for v in self.nums],
            self.den * s.denominator,
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return self.den == 1

    def in_4Z(self) -> bool:
        """True when every coefficient is an integer divisible by 4."""
        return self.den == 1 and math.gcd(*self.nums) % 4 == 0


@dataclass(frozen=True, init=False, eq=False)
class RingElement(_IntVector):
    """A canonical element of Q[chi]/I<K>.

    The coefficient of chi^j in the unique representative of degree
    < 2^K - 1 is nums[j] / den, stored in lowest terms; `coeffs`, those
    2^K - 1 values as `Fraction`s, is built on first access and cached.
    """

    def __init__(self, level: int, coeffs: Iterable[Rational]) -> None:
        _validate_level(level)
        nums, den = _lift(coeffs)
        if not _is_two_to_the(len(nums) + 1, level):
            raise ValueError(
                f"canonical coefficient tuple at level {_shown(level)} must"
                f" have length 2^{_shown(level)} - 1, got {len(nums)}"
            )
        self._store(level, nums, den)

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            return self._scale(other)
        self._require_same_level(other)
        z = _poly_mul_int(self.nums, other.nums, (1 << self.level, 1))
        return RingElement._from_cyclic(self.level, z, self.den * other.den)

    @classmethod
    def _from_cyclic(cls, K: int, z: Sequence[int],
                     den: int = 1) -> "RingElement":
        """The canonical element of the N-entry vector z of
        Q[chi]/(chi^N - 1) over den: the norm is zero in the quotient, so
        subtracting the last entry clears chi^(N-1)."""
        top = z[-1]
        nums = [v - top for v in z[:-1]] if top else z[:-1]
        return cls._from_ints(K, nums, den)

    def __pow__(self, exponent: int) -> "RingElement":
        return _power(self, exponent, make_element(self.level, [1]))

    def evaluate(self, point: Rational) -> Fraction:
        """Evaluate the canonical representative at a rational point."""
        (p,), q = _lift([point])
        # Horner on integers: after t terms, acc / q^(t-1) is their value
        acc, scale = 0, 1
        for c in reversed(self.nums):
            acc = acc * p + c * scale
            scale *= q
        return Fraction(acc, scale // q * self.den)


@dataclass(frozen=True, init=False, eq=False)
class LevelProjection(_IntVector):
    """An element of Q[chi]/<1 + chi^(2^l)>: coefficient j is nums[j] / den
    for j < 2^l, stored and viewed through `coeffs` like `RingElement`."""

    def __init__(self, level: int, coeffs: Iterable[Rational]) -> None:
        if not isinstance(level, int) or isinstance(level, bool) or level < 0:
            raise ValueError(
                f"projection level must be >= 0, got {_shown(level)}")
        nums, den = _lift(coeffs)
        if not _is_two_to_the(len(nums), level):
            raise ValueError(
                f"projection at level {_shown(level)} must have"
                f" 2^{_shown(level)} coefficients, got {len(nums)}")
        self._store(level, nums, den)

    def __mul__(self, other):
        if isinstance(other, LevelProjection):
            self._require_same_level(other)
            conv = _poly_mul_int(self.nums, other.nums,
                                 (1 << self.level, -1))
            return LevelProjection._from_ints(self.level, conv,
                                              self.den * other.den)
        return self._scale(other)

    def __pow__(self, exponent: int) -> "LevelProjection":
        """A monomial c chi^j / den in closed form, as chi^(2^l) = -1:
        (-1)^(je >> l) c^e chi^(je mod 2^l) / den^e; any other base by
        square-and-multiply (`_power`)."""
        n = 1 << self.level
        nums = self.nums
        if nums.count(0) != n - 1:
            return _power(self, exponent, LevelProjection._from_ints(
                self.level, [1] + [0] * (n - 1)))
        _validate_natural(exponent, "exponent")
        c = sum(nums)
        wraps, j = divmod(nums.index(c) * exponent, n)
        power = c ** exponent
        out = [0] * n
        out[j] = -power if wraps & 1 else power
        return LevelProjection._from_ints(self.level, out,
                                          self.den ** exponent)


# ---------------------------------------------------------------------------
# construction and basic ring operations
# ---------------------------------------------------------------------------

def make_element(K: int, raw: Iterable[Rational]) -> RingElement:
    """Reduce an arbitrary coefficient list into canonical form at level K.

    The input may have any length; index j contributes to chi^j.  Reduction
    uses chi^N = 1 followed by subtracting a multiple of the norm element to
    clear the coefficient of chi^(N-1).
    """
    _validate_level(K)
    n = 1 << K
    nums, den = _lift(raw)
    return RingElement._from_cyclic(K, _wrap(nums, n, 1), den)


def ring_arith(a: RingElement, b: RingElement, op: str) -> RingElement:
    """Exact add, sub, or mul of two elements at the same level."""
    if not isinstance(a, RingElement) or not isinstance(b, RingElement):
        raise TypeError("ring_arith expects two RingElement values")
    a._require_same_level(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(
        f"unknown operation {_shown(op)}; expected add, sub, or mul")


def _wrap(coeffs: Sequence[int], n: int, s: int) -> list[int]:
    """Reduce sum(c_j * chi^j) by chi^n = s (s = 1 or -1, n a power of two)
    to n entries: zero-padded when it has at most n; by strided slice sums
    while the 2n index classes hold 8 entries each (the faster way there,
    measured for N = 2^5..2^12); else by adding the halves of the list
    padded to a power of two down to 2n entries, then combining by s."""
    length = len(coeffs)
    if length <= n:
        return [*coeffs, *[0] * (n - length)]
    if length + 1 >= 16 * n:
        step = 2 * n
        return [sum(coeffs[r::step]) + s * sum(coeffs[r + n::step])
                for r in range(n)]
    x = [*coeffs, *[0] * ((1 << (length - 1).bit_length()) - length)]
    while len(x) > 2 * n:
        h = len(x) >> 1
        x = list(map(add, x[:h], x[h:]))
    return list(map(add if s == 1 else sub, x[:n], x[n:]))


# schoolbook up to len(a) * len(b) cells: at 8 x 8 both ways take 5-10 us
_SCHOOLBOOK_CELLS = 64
_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _poly_mul_int(a: Sequence[int], b: Sequence[int],
                  wrap: tuple[int, int] | None = None) -> list[int]:
    """Exact product of integer polynomials, optionally wrapped.

    With wrap = (n, s) the product is reduced by chi^n = s (s = 1 cyclic,
    s = -1 negacyclic) to n entries; neither operand may be longer than n.
    Unwrapped it has len(a) + len(b) - 1 entries, none for an empty operand.

    Each operand is packed once into a signed big integer with digits of w
    bytes, 2^(8w-1) > max|a| * max|b| * min(len(a), len(b)): a bound on
    every coefficient, wrapped or not, as a wrapped entry still sums at
    most min(len(a), len(b)) terms.  One multiply (a squaring when b is a)
    gives the product at chi = 2^(8w); a wrap splits it at digit n into
    lo + s * hi and takes the residue modulo 2^(8wn) - s of least absolute
    value.  Widths up to 8 bytes are rounded up to 1, 2, 4 or 8 for `struct`.
    """
    la, lb = len(a), len(b)
    n, s = wrap or (la + lb - 1, 0)
    if wrap and max(la, lb) > n:
        raise ArithmeticError(f"operands longer than the wrap length {n}")
    if not la or not lb:
        return [0] * n if wrap else []
    if la * lb <= _SCHOOLBOOK_CELLS:
        out = [0] * max(n, la + lb - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        for j in range(n, la + lb - 1):
            out[j - n] += s * out[j]
        return out[:n] if wrap else out
    ma = max(map(abs, a))
    bound = ma * (ma if b is a else max(map(abs, b))) * min(la, lb)
    if not bound:
        return [0] * n
    w = bound.bit_length() // 8 + 1
    w = 1 << (w - 1).bit_length() if w <= 8 else w
    code = _STRUCT_CODES.get(w)

    def top(count: int) -> int:
        # 2^(8w-1) in every digit: xor with it turns a two's complement
        # digit v into the biased digit v + 2^(8w-1), and back
        return int.from_bytes((bytes(w - 1) + b"\x80") * count, "little")

    def pack(vals: Sequence[int]) -> int:
        raw = (struct.pack(f"<{len(vals)}{code}", *vals) if code else
               b"".join(v.to_bytes(w, "little", signed=True) for v in vals))
        bias = top(len(vals))
        return (int.from_bytes(raw, "little") ^ bias) - bias

    x = pack(a)
    c = x * x if b is a else x * pack(b)
    if s:
        # lo is in [0, 2^(8wn)) and |hi| < 2^(8w(n-1)), so lo + s * hi lies
        # above -modulus / 2 and below 3 * modulus / 2
        shift = 8 * w * n
        c = (c & ((1 << shift) - 1)) + s * (c >> shift)
        modulus = (1 << shift) - s
        if c > modulus >> 1:
            c -= modulus
    bias = top(n)
    raw = ((c + bias) ^ bias).to_bytes(w * n, "little")
    if code:
        return list(struct.unpack(f"<{n}{code}", raw))
    return [int.from_bytes(raw[i:i + w], "little", signed=True)
            for i in range(0, w * n, w)]


# ---------------------------------------------------------------------------
# the internal cyclic-lift engine: family vectors on a short window
# ---------------------------------------------------------------------------
# A family vector is an integer vector of length N read in
# Q[chi]/(chi^N - 1), divided by one positive integer den.  Only its class
# modulo the norm vector (1, 1, ..., 1) is meaningful, so the canonical
# coefficient j is (entry j - entry N-1) / den.


def _binomial_dot(diffs: Sequence[int], b: int, first: int) -> int:
    """sum_h diffs[h] * C(b, first + h), the binomials taken in turn from one
    running product C(b, h + 1) = C(b, h) (b - h) / (h + 1)."""
    c = b if first else 1
    h = first
    total = 0
    for d in diffs:
        total += d * c
        c = c * (b - h) // (h + 1)
        h += 1
    return total


def _moved(tails: Sequence[Sequence[int]], k: int,
           count: int) -> list[tuple[int, ...]]:
    """moved[c] for c < count: tail class c % k moved along c // k blocks,
    one move being D[h] + D[h+1] on the Newton differences; it aligns a
    shorter head in `_residue_images`."""
    moved = list(tails)
    while len(moved) < count:
        d = moved[-k]
        moved.append((*map(add, d[:-1], d[1:]), d[-1]))
    return moved


class _Window(NamedTuple):
    """A family vector stored as a head of entries and a polynomial tail.

    `head` holds entries 0 .. s - 1 (s = len(head)).  From s on, the
    entries j = s + r + b*k of each residue class r (0 <= r < k) are the
    polynomial sum_h tails[r][h] * C(b, h) in b: its Newton forward
    differences at b = 0, so every entry, class sum and the last entry are
    closed forms, and sum_{b<L} C(b, h) = C(L, h + 1).  An empty `tails`
    means the head holds all n entries.  A window is divided only by
    1 - chi^k (`divided`); only `restrided` changes its class step, to a
    multiple, reading the new classes off the entries.
    """

    n: int
    k: int
    head: tuple[int, ...]
    tails: tuple[tuple[int, ...], ...]
    den: int

    @classmethod
    def from_numerator(cls, poly: Sequence[int], n: int) -> "_Window":
        """The integer polynomial poly(chi) at class step 1: its
        s = len(poly) coefficients as the head and a zero tail, so the
        window is s + 1 wide, and all n entries from the start when that
        reaches n.  Each division by 1 - chi moves one head entry into the
        tail, so a numerator divided e times needs s >= e (`_family_vec`'s
        always has it).
        """
        s = len(poly)
        if s + 1 >= n:
            return cls(n, 1, tuple(_wrap(poly, n, 1)), (), 1)
        return cls(n, 1, tuple(poly), ((0,),), 1)

    def entry(self, j: int) -> int:
        """Entry j, for 0 <= j < N."""
        _, k, head, tails, _ = self
        if j < len(head):
            return head[j]
        b, r = divmod(j - len(head), k)
        return _binomial_dot(tails[r], b, 0)

    def entries(self, width: int) -> tuple[int, ...]:
        """Entries 0 .. width - 1 (all n once width >= n); along a tail
        class the h-th differences are running sums of the (h+1)-th ones,
        started at diffs[h], built from the highest difference down.  The
        first c entries of a class need only its first c differences, and
        of its h-th differences only the first c - h, so each pass is one
        entry longer than the last."""
        n, k, head, tails, _ = self
        width = min(width, n)
        s = len(head)
        if width <= s:
            return head[:width]
        out = list(head) + [0] * (width - s)
        for r, diffs in enumerate(tails):
            count = len(range(s + r, width, k))
            if count:
                diffs = diffs[:count]
                col = [diffs[-1]] * (count - len(diffs) + 1)
                for d in reversed(diffs[:-1]):
                    col = list(accumulate(col, initial=d))
                out[s + r::k] = col
        return tuple(out)

    def restrided(self, step: int) -> "_Window":
        """The same vector held with class step `step`, a multiple of k:
        each new class is a polynomial of the tail's degree in its block
        index, read off the next L * step entries (L the tail length) by L
        difference passes at stride `step`.  All n entries are held when
        the new window does not fit."""
        n, k, head, tails, den = self
        if step % k:
            raise ArithmeticError(
                f"cannot hold class step {k} with step {step}")
        if step == k:
            return self
        s = len(head)
        if not tails or s + len(tails[0]) * step > n:
            return _Window(n, step, self.entries(n), (), den)
        vals = self.entries(s + len(tails[0]) * step)[s:]
        rows = []
        while vals:
            rows.append(vals[:step])
            vals = list(map(sub, vals[step:], vals))
        return _Window(n, step, head, tuple(zip(*rows)), den)

    def divided(self, times: int = 1) -> "_Window":
        """Divide by (1 - chi^k)^times modulo the norm, k the class step
        (gcd(k, n) = 1).

        Each division first adds t times the norm vector, where t makes the
        entry sum vanish; the sum lives on the component killed by the
        quotient map, so the result is exact in Q[chi]/I<K>.  Each class
        mod k is then a running sum from its first entry, and the class
        constants close the cycle chi^N = 1.  The last k head entries
        become the first entries of the tail classes, one Newton difference
        longer.
        """
        n, k, head, tails, den = self
        for _ in range(times):
            s = len(head)
            # step out to all n entries when there is no head to move, or
            # when the longer tail no longer fits
            if tails and (s < k or s + len(tails[0]) * k > n):
                head = _Window(n, k, head, tails, den).entries(n)
                tails = ()
                s = n
            # sums of all n entries over the classes mod k
            sums = [sum(head[r::k]) for r in range(k)]
            for r, diffs in enumerate(tails):
                count = (n - s - r + k - 1) // k
                sums[(s + r) % k] += _binomial_dot(diffs, count, 1)
            total = sum(sums)
            if total % n:
                head = [v * n for v in head]
                tails = [[d * n for d in diffs] for diffs in tails]
                sums = [v * n for v in sums]
                den *= n
                total *= n
            t = -(total // n)
            y = [v + t for v in head]
            # the last entry of class r wraps onto the first of class r - n:
            # the class constants make the running sums agree
            c = r = 0
            for _ in range(k):
                y[r] += c
                y[r::k] = accumulate(y[r::k])
                c += sums[r] + t * ((n - r + k - 1) // k)
                r = (r - n) % k
            head = tuple(y)
            if tails:
                tails = [(head[s - k + r], diffs[0] + t, *diffs[1:])
                         for r, diffs in enumerate(tails)]
                head = head[:s - k]
        return _Window(n, k, head, tuple(tails), den)


def _binom_coeffs(p: int, sign: int) -> list[int]:
    """Coefficients of (1 + sign*chi)^p."""
    return [math.comb(p, j) * sign ** j for j in range(p + 1)]


def _times_square(p: list[int], sign: int) -> list[int]:
    """p times (1 + sign*chi)^2 = 1 + 2 sign chi + chi^2."""
    return [x + 2 * sign * y + z
            for x, y, z in zip(p + [0, 0], [0, *p, 0], [0, 0, *p])]


def _alternating(k: int, n: int) -> list[int]:
    """Coefficients of 1 - chi + chi^2 - ... + chi^(k-1) folded by chi^n = 1
    (n even): entry r sums the k // n + [r < k mod n] terms of its class,
    each (-1)^r, so there are min(k, n) entries."""
    full, rest = divmod(k, n)
    return [(full + (r < rest)) * (-1) ** r for r in range(min(k, n))]


def _element_from_vec(K: int, vec: _Window) -> RingElement:
    return RingElement._from_cyclic(K, vec.entries(1 << K), vec.den)


def _residue_images(vecs: Sequence[_Window]):
    """Canonical difference vectors modulo 4*den, on one common denominator.

    Returns (rows, M): integer rows reduced mod M with the property that an
    integer combination sum(t_i * rows[i]) is congruent to 0 mod M in every
    entry exactly when the corresponding combination of ring values lies in
    4 * Z[chi]/I<K>.  Every row is read by one loop: the first s entries
    minus the last entry (`entries(s)`, which also reads a shorter head's
    missing entries off its tail), then per tail class, moved along its
    Newton differences to start at entry s (`_moved`), its first value
    minus the last entry and its higher Newton differences, zero-padded to
    the longest tail.  s is the longest head when every vector has a tail
    and the common window (s plus, per class, as many entries as the
    longest tail needs) fits in N; then, against the entries of the common
    window, the rows are a unimodular change of columns, the same for every
    vector (Pascal's matrix per class), so kernels, Smith exponents and 4Z
    verdicts are those of the entries.  Otherwise s = N and there are no
    tail columns.
    """
    n, k = vecs[0].n, vecs[0].k
    if any(v.n != n or v.k != k for v in vecs):
        raise ArithmeticError(
            "family vectors of different levels or class steps do not combine"
        )
    den = math.lcm(*(v.den for v in vecs))
    m = 4 * den
    s, length = n, 0
    if all(v.tails for v in vecs):
        s = max(len(v.head) for v in vecs)
        length = max(len(v.tails[0]) for v in vecs)
        if s + length * k > n:
            s, length = n, 0
    rows = []
    for v in vecs:
        top = v.entry(n - 1)
        row = [x - top for x in v.entries(s)]
        if length:
            lag = s - len(v.head)
            for diffs in _moved(v.tails, k, lag + k)[lag:]:
                row.append(diffs[0] - top)
                row += diffs[1:]
                row += [0] * (length - len(diffs))
        scale = den // v.den
        rows.append([x * scale % m for x in row])
    return rows, m


def _f2_numerator(q: Sequence[int]) -> list[int]:
    """P = sum_j q_j (1+chi)^(2j) (1-chi)^(2(deg-j)), so q(f^2) =
    P(chi) / (1-chi)^(2*deg), by a Horner sweep from q_deg that carries
    g = (1 - chi)^(2(deg-j)) along: P and g are of one length."""
    deg = len(q) - 1
    p, g = [q[-1]], [1]
    for j in range(deg - 1, -1, -1):
        p, g = _times_square(p, 1), _times_square(g, -1)
        if q[j]:
            p = [a + q[j] * b for a, b in zip(p, g)]
    return p


def _family_vec(
    K: int,
    k: int,
    q: Sequence[int] = (1,),
    *,
    f_power: int = 0,
    f2_minus_1: bool = False,
    scale: int = 1,
    times_one_minus_chi: int = 0,
) -> _Window:
    """Internal vector for scale * f'_k * f^f_power * (f^2 - 1 when flagged)
    * q(f^2) * (1 - chi)^times_one_minus_chi: every family window.

    The sparse factors are multiplied out first, those of f'_k = (1 - chi
    + ... + chi^(k-1)) (1 - chi) / (1 - chi^k) and f_k already folded by
    chi^N = 1, so a k past N costs what k mod N does.  The numerator is
    built at class step 1 and divided e times by 1 - chi (e >= 0 the
    negative net power of 1 - chi), then restrided to class step k mod N
    for the one division by 1 - chi^k.  Its length H is at least
    e + (k mod N) for every nonzero q, so each division finds the head
    entries it moves into the tail.
    """
    _validate_level(K)
    n = 1 << K
    _validate_odd(k)
    step = k % n
    q = [scale * c for c in q]
    while q and q[-1] == 0:
        q.pop()
    if not q:
        return _Window.from_numerator((), n).restrided(step)
    deg = len(q) - 1
    # scale * q(f^2) = P(chi) / (1-chi)^(2*deg) over the scaled q_j
    p = _f2_numerator(q)
    if f_power:
        # f'_k f = f_k: (1 - chi + ... + chi^(k-1)) (1 + chi) = 1 + chi^k
        num = _poly_mul_int(p, [1, *[0] * (step - 1), 1])
        if f_power > 1:
            num = _poly_mul_int(num, _binom_coeffs(f_power - 1, 1))
    else:
        num = _poly_mul_int(p, _alternating(k, n))
    if f2_minus_1:
        num = [0] + [4 * c for c in num]
    net = (times_one_minus_chi + 1 - f_power - (2 if f2_minus_1 else 0)
           - 2 * deg)
    if net > 0:
        num = _poly_mul_int(num, _binom_coeffs(net, -1))
    e = max(-net, 0)
    return _Window.from_numerator(num, n).divided(e).restrided(step).divided()


def _int_coeffs(q) -> tuple[int, ...]:
    """Integer coefficient tuple from an IntPolynomial-like or a sequence."""
    coeffs = getattr(q, "coeffs", q)
    if isinstance(coeffs, (int, float, Fraction)):
        coeffs = (coeffs,)
    out = []
    for c in coeffs:
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ValueError("polynomial coefficients must be integers")
            c = c.numerator
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError("polynomial coefficients must be integers")
        out.append(c)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _eval_f2_vec(
    qcoeffs: Sequence[int],
    K: int,
    k: int,
    mode: str = "odd",
    m: int = 1,
    times_one_minus_chi: int = 0,
) -> _Window:
    """Internal vector for 8 * f'_k * f^m * q(f^2) (odd mode) or
    8 * f'_k * (f^2 - 1) * q(f^2) (even mode), optionally times (1-chi)^t:
    `_family_vec` with scale 8."""
    if mode not in ("odd", "even"):
        raise ValueError(f"mode must be 'odd' or 'even', got {_shown(mode)}")
    return _family_vec(K, k, qcoeffs, f_power=m if mode == "odd" else 0,
                       f2_minus_1=mode == "even", scale=8,
                       times_one_minus_chi=times_one_minus_chi)


# ---------------------------------------------------------------------------
# distinguished elements
# ---------------------------------------------------------------------------

def element_f(K: int) -> RingElement:
    """The element f = (1 + chi)/(1 - chi)."""
    return _element_from_vec(K, _family_vec(K, 1, f_power=1))


def element_f_prime(K: int, k: int) -> RingElement:
    """The element f'_k, which has integer canonical coefficients."""
    return _element_from_vec(K, _family_vec(K, k))


def element_f_k(K: int, k: int) -> RingElement:
    """The element f_k = (1 + chi^k)/(1 - chi^k) = f'_k * f."""
    return _element_from_vec(K, _family_vec(K, k, f_power=1))


# ---------------------------------------------------------------------------
# conjugation, eigenspaces, membership
# ---------------------------------------------------------------------------

def conjugate(a: RingElement) -> RingElement:
    """Substitute chi -> chi^(N-1) and reduce to canonical form."""
    # chi^j goes to chi^(N - j); with no chi^(N - 1) term entry 1 is zero
    return RingElement._from_cyclic(
        a.level, [a.nums[0], 0, *a.nums[:0:-1]], a.den)


def eigenspace_test(a: RingElement, sign: str) -> bool:
    """Test membership in the conjugation eigenspaces.

    sign '-' tests conjugate(a) == -a.  sign '+' tests conjugate(a) == a and,
    when all coefficients are integers, additionally that the value at
    chi = -1 is even.
    """
    if sign in ("-", "−"):
        return conjugate(a) == -a
    if sign == "+":
        if conjugate(a) != a:
            return False
        if a.is_integral():
            return int(a.evaluate(-1)) % 2 == 0
        return True
    raise ValueError(f"sign must be '+' or '-', got {_shown(sign)}")


def is_in_4Z(a: RingElement) -> bool:
    """Exact test for membership in 4 * Z[chi]/I<K>.

    True exactly when every canonical coefficient is an integer divisible by
    four.  This is the test everything else in the package reduces to; it is
    not criterion-based.
    """
    return a.in_4Z()


# ---------------------------------------------------------------------------
# the level tower: projection, reconstruction, inversion
# ---------------------------------------------------------------------------

def _tower(nums: Sequence[int]) -> list[list[int]]:
    """The folds of one numerator of length N - 1 at every level l < K, in
    order of l, from one descent: about 2N additions, not K * N."""
    x = [*nums, 0]
    parts = []
    while len(x) > 1:
        h = len(x) >> 1
        lo, hi = x[:h], x[h:]
        parts.append(list(map(sub, lo, hi)))
        x = list(map(add, lo, hi))
    return parts[::-1]


def _projections(a: RingElement) -> list[LevelProjection]:
    """Every projection of a, in order of level, from one `_tower` descent."""
    return [LevelProjection._from_ints(l, part, a.den)
            for l, part in enumerate(_tower(a.nums))]


def _validate_projection_level(K: int, l: int) -> None:
    if not isinstance(l, int) or isinstance(l, bool) or l < 0 or l > K - 1:
        raise ValueError(
            f"projection level must satisfy 0 <= l <= {K - 1},"
            f" got {_shown(l)}")


def project(a: RingElement, l: int) -> LevelProjection:
    """Project onto Q[chi]/<1 + chi^(2^l)> for 0 <= l <= K-1."""
    _validate_projection_level(a.level, l)
    return LevelProjection._from_ints(l, _wrap(a.nums, 1 << l, -1), a.den)


def crt_reconstruct(parts: Sequence[LevelProjection]) -> RingElement:
    """Reassemble the unique ring element with the given projections.

    parts must list one projection per level l = 0, ..., K-1.  This inverts
    the split level by level: with s the element modulo chi^(2^l) - 1
    (starting from 0 as the chi = 1 part) and d the level-l part, the element
    modulo chi^(2^(l+1)) - 1 has halves lo = (s + d)/2 and hi = (s - d)/2.
    The walk runs on integers over one denominator den: it carries
    2^l * den * s, so a level adds d << l instead of halving.
    """
    parts = list(parts)
    K = len(parts)
    if K == 0:
        raise ValueError("parts must contain at least the level-0 projection")
    for l, p in enumerate(parts):
        if not isinstance(p, LevelProjection) or p.level != l:
            raise ValueError(
                f"parts[{l}] must be a LevelProjection at level {l}"
            )
    den = math.lcm(*(p.den for p in parts))
    s = [0]
    for l, p in enumerate(parts):
        scale = (den // p.den) << l
        ds = [v * scale for v in p.nums]
        s = [*map(add, s, ds), *map(sub, s, ds)]
    return RingElement._from_cyclic(K, s, den << K)


def _invert_level(p: LevelProjection) -> LevelProjection:
    """Inverse of a nonzero p in the field Q[chi]/<1 + chi^(2^l)>.

    p^-1 = p(-chi) * (p(chi) * p(-chi))^-1, where the norm p(chi) * p(-chi)
    is even in chi and so lives at level l - 1 in chi^2.
    """
    if p.level == 0:
        (v,) = p.nums
        return LevelProjection._from_ints(0, [p.den if v > 0 else -p.den],
                                          abs(v))
    conj = LevelProjection._from_ints(
        p.level, [-c if j & 1 else c for j, c in enumerate(p.nums)], p.den
    )
    norm = p * conj
    inv = _invert_level(
        LevelProjection._from_ints(p.level - 1, norm.nums[::2], norm.den)
    )
    spread = [0] * (2 * len(inv.nums))
    spread[::2] = inv.nums
    return conj * LevelProjection._from_ints(p.level, spread, inv.den)


def invert(a: RingElement) -> RingElement:
    """Multiplicative inverse in Q[chi]/I<K>.

    Projects to every level, inverts each part in its field and reassembles.
    Raises ValueError when the element is not invertible, which is exactly
    when some projection is zero (0 included).
    """
    parts = _projections(a)
    for p in parts:
        if p.is_zero():
            raise ValueError(
                f"element is not invertible: its level-{p.level} projection"
                " is zero"
            )
    return crt_reconstruct([_invert_level(p) for p in parts])


# ---------------------------------------------------------------------------
# evaluation of the distinguished families at f^2
# ---------------------------------------------------------------------------

def _validate_m(mode: str, m: int | None) -> int:
    """The exponent of f in the family of mode: m in {1, 2} (default 1) in
    odd mode, and none given in even mode, where 1 is returned."""
    if mode == "odd":
        mm = 1 if m is None else m
        if (not isinstance(mm, int) or isinstance(mm, bool)
                or mm not in (1, 2)):
            raise ValueError(f"m must be 1 or 2 in odd mode, got {_shown(m)}")
        return mm
    if mode == "even":
        if m is not None:
            raise ValueError("even mode does not take an exponent m")
        return 1
    raise ValueError(f"mode must be 'odd' or 'even', got {_shown(mode)}")


def evaluate_at_f_squared(
    q,
    K: int,
    k: int,
    mode: str = "odd",
    m: int | None = None,
    times_one_minus_chi: int = 0,
) -> RingElement:
    """The element 8 * f'_k * f^m * q(f^2) or 8 * f'_k * (f^2 - 1) * q(f^2).

    mode 'odd' takes m in {1, 2} (default 1); mode 'even' takes no m.  The
    optional times_one_minus_chi multiplies the result by that power of
    (1 - chi); it exists so that the divisibility ladders can be evaluated
    without a dense product at high levels.
    """
    mm = _validate_m(mode, m)
    _validate_natural(times_one_minus_chi, "times_one_minus_chi")
    coeffs = _int_coeffs(q)
    return _element_from_vec(
        K, _eval_f2_vec(coeffs, K, k, mode, mm, times_one_minus_chi)
    )


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[1-9][0-9]*)?")


def _decimal_str(x) -> str:
    """str(x); an int or Fraction past Python's int-to-str digit limit is
    written in full through `decimal`, which converts without that limit."""
    try:
        return str(x)
    except ValueError:
        num = str(Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def _decimal_int(digits: str) -> int:
    """int(digits); past the int-to-str digit limit read through
    `decimal`, which converts without that limit."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def _decimal_fraction(token: str) -> Fraction:
    """The rational of `_decimal_str`'s text, an int or num/den, its
    integers read by `_decimal_int`."""
    num, _, den = token.partition("/")
    return Fraction(_decimal_int(num), _decimal_int(den or "1"))


def element_to_text(a: RingElement) -> str:
    """Serialize as `K=<int>; <c0>,<c1>,...` with rationals in lowest terms."""
    return f"K={a.level}; " + ",".join(map(_decimal_str, a.coeffs))


def element_from_text(text: str) -> RingElement:
    """Parse the serialization produced by element_to_text.

    Parsing is strict: the level prefix, the separator, the token syntax
    (ASCII digits only) and the coefficient count are all enforced, only
    trailing newlines are dropped, and only the writer's spelling is read:
    a leading zero (`K=01`), `-0`, or a fraction not in lowest terms or
    over 1 (`4/2`, `4/1`) raises ValueError.
    """
    body = text.rstrip("\n")
    match = re.fullmatch(r"K=([0-9]+); (.*)", body, flags=re.DOTALL)
    if not match:
        raise ValueError("malformed element text: expected 'K=<int>; c0,c1,...'")
    K = _decimal_int(match.group(1))
    _validate_level(K)
    tokens = match.group(2).split(",")
    if not _is_two_to_the(len(tokens) + 1, K):
        raise ValueError(
            f"wrong coefficient count for level {_shown(K)}: expected"
            f" 2^{_shown(K)} - 1, got {len(tokens)}"
        )
    coeffs = []
    for tok in tokens:
        if not _RATIONAL_RE.fullmatch(tok):
            raise ValueError(f"malformed rational token {tok!r}")
        coeffs.append(_decimal_fraction(tok))
    g = RingElement(K, tuple(coeffs))
    if element_to_text(g) != body:
        raise ValueError("element text not as element_to_text writes it")
    return g
