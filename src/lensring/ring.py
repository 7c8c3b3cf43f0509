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
`project` is the only way down the tower and `crt_reconstruct`, the inverse
butterfly, the only way up; `invert` goes down, inverts each level in its
field by the norm to the level below, and comes back up.

Performance note: the public API works with `fractions.Fraction` throughout,
but heavy operations run internally on an integer coefficient vector of
length N in the cyclic lift Q[chi]/(chi^N - 1) together with one shared
positive integer denominator.  Division by 1 - chi^k (k odd) is a single
cumulative-sum pass after adjusting by a multiple of the norm element, which
is legitimate because the norm is zero in the quotient.  Dense products use
Kronecker substitution (one big-integer multiply).  All of this is exact.

Every value is immutable after construction and every function is pure, so
everything here is safe to share across threads without synchronization.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence, Union

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


def _as_fraction(value: Rational) -> Fraction:
    """Coerce to an exact rational, rejecting floats outright."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def _validate_level(K: int) -> int:
    if not isinstance(K, int) or isinstance(K, bool) or K < 1:
        raise ValueError(f"level K must be a positive integer, got {K!r}")
    return 1 << K


def _validate_odd(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1 or k % 2 == 0:
        raise ValueError(f"k must be a positive odd integer, got {k!r}")


@dataclass(frozen=True)
class RingElement:
    """A canonical element of Q[chi]/I<K>.

    coeffs[j] is the coefficient of chi^j in the unique representative of
    degree < 2^K - 1, so the tuple has length exactly 2^K - 1.
    """

    level: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        n = _validate_level(self.level)
        coeffs = tuple(_as_fraction(c) for c in self.coeffs)
        if len(coeffs) != n - 1:
            raise ValueError(
                f"canonical coefficient tuple at level {self.level} must have"
                f" length {n - 1}, got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def _require_same_level(self, other: "RingElement") -> None:
        if self.level != other.level:
            raise ValueError(
                f"level mismatch: {self.level} vs {other.level}"
            )

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        self._require_same_level(other)
        return RingElement(
            self.level, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        self._require_same_level(other)
        return RingElement(
            self.level, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "RingElement":
        return RingElement(self.level, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, RingElement):
            self._require_same_level(other)
            return _mul_elements(self, other)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            s = _as_fraction(other)
            return RingElement(self.level, tuple(a * s for a in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "RingElement":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = make_element(self.level, [1])
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base_needed = e >> 1
            if base_needed:
                base = base * base
            e = base_needed
        return result

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_integral(self) -> bool:
        """True when every canonical coefficient is an integer."""
        return all(c.denominator == 1 for c in self.coeffs)

    def evaluate(self, point: Rational) -> Fraction:
        """Evaluate the canonical representative at a rational point."""
        x = _as_fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class LevelProjection:
    """An element of Q[chi]/<1 + chi^(2^l)>, with 2^l coefficients."""

    level: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.level, int) or isinstance(self.level, bool) or self.level < 0:
            raise ValueError(f"projection level must be >= 0, got {self.level!r}")
        coeffs = tuple(_as_fraction(c) for c in self.coeffs)
        if len(coeffs) != (1 << self.level):
            raise ValueError(
                f"projection at level {self.level} must have {1 << self.level}"
                f" coefficients, got {len(coeffs)}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def _require_same_level(self, other: "LevelProjection") -> None:
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} vs {other.level}")

    def __add__(self, other: "LevelProjection") -> "LevelProjection":
        if not isinstance(other, LevelProjection):
            return NotImplemented
        self._require_same_level(other)
        return LevelProjection(
            self.level, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "LevelProjection") -> "LevelProjection":
        if not isinstance(other, LevelProjection):
            return NotImplemented
        self._require_same_level(other)
        return LevelProjection(
            self.level, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "LevelProjection":
        return LevelProjection(self.level, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            s = _as_fraction(other)
            return LevelProjection(self.level, tuple(a * s for a in self.coeffs))
        if not isinstance(other, LevelProjection):
            return NotImplemented
        self._require_same_level(other)
        # negacyclic product: chi^(2^l) = -1
        m = 1 << self.level
        out = [Fraction(0)] * m
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in enumerate(other.coeffs):
                    if y:
                        idx = i + j
                        if idx < m:
                            out[idx] += x * y
                        else:
                            out[idx - m] -= x * y
        return LevelProjection(self.level, tuple(out))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.__mul__(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def in_4Z(self) -> bool:
        """True when every coefficient is an integer divisible by 4."""
        return all(c.denominator == 1 and c.numerator % 4 == 0 for c in self.coeffs)


# ---------------------------------------------------------------------------
# construction and basic ring operations
# ---------------------------------------------------------------------------

def make_element(K: int, raw: Iterable[Rational]) -> RingElement:
    """Reduce an arbitrary coefficient list into canonical form at level K.

    The input may have any length; index j contributes to chi^j.  Reduction
    uses chi^N = 1 followed by subtracting a multiple of the norm element to
    clear the coefficient of chi^(N-1).
    """
    n = _validate_level(K)
    acc = [Fraction(0)] * n
    for j, c in enumerate(raw):
        acc[j % n] += _as_fraction(c)
    top = acc[n - 1]
    return RingElement(K, tuple(c - top for c in acc[:-1]))


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
    raise ValueError(f"unknown operation {op!r}; expected add, sub, or mul")


def _mul_elements(a: RingElement, b: RingElement) -> RingElement:
    n = 1 << a.level
    da = math.lcm(*(c.denominator for c in a.coeffs))
    db = math.lcm(*(c.denominator for c in b.coeffs))
    za = [int(c * da) for c in a.coeffs]
    zb = [int(c * db) for c in b.coeffs]
    conv = _poly_mul_int(za, zb)
    z = [0] * n
    for j, v in enumerate(conv):
        if v:
            z[j % n] += v
    top = z[n - 1]
    den = da * db
    return RingElement(a.level, tuple(Fraction(v - top, den) for v in z[:-1]))


def _poly_mul_int(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact integer polynomial product.

    Schoolbook for small inputs, Kronecker substitution (coefficients packed
    into big integers, one multiply per sign combination) for large ones.
    """
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    n = la + lb - 1
    if la * lb <= 4096:
        out = [0] * n
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        return out
    ma = max(abs(v) for v in a)
    mb = max(abs(v) for v in b)
    if ma == 0 or mb == 0:
        return [0] * n
    bound = ma * mb * min(la, lb)
    width = bound.bit_length() // 8 + 1  # bytes per packed digit, 2^(8w) > bound

    def pack(vals: Sequence[int]) -> int:
        return int.from_bytes(
            b"".join(v.to_bytes(width, "little") for v in vals), "little"
        )

    def conv_nonneg(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        big = pack(xs) * pack(ys)
        raw = big.to_bytes(width * n, "little")
        return [
            int.from_bytes(raw[i * width:(i + 1) * width], "little")
            for i in range(n)
        ]

    ap = [v if v > 0 else 0 for v in a]
    an = [-v if v < 0 else 0 for v in a]
    bp = [v if v > 0 else 0 for v in b]
    bn = [-v if v < 0 else 0 for v in b]
    pp = conv_nonneg(ap, bp)
    nn = conv_nonneg(an, bn)
    pn = conv_nonneg(ap, bn)
    np_ = conv_nonneg(an, bp)
    return [pp[i] + nn[i] - pn[i] - np_[i] for i in range(n)]


# ---------------------------------------------------------------------------
# the internal cyclic-lift engine
# ---------------------------------------------------------------------------
# A value is a pair (z, den): an integer list z of length N read in
# Q[chi]/(chi^N - 1), divided by the positive integer den.  Only the class
# modulo the norm ideal is meaningful; helpers may freely add multiples of
# the norm vector (1, 1, ..., 1).

def _mul_sparse(z: list[int], terms: Sequence[tuple[int, int]]) -> list[int]:
    """Multiply by sum(c * chi^s for c, s in terms), cyclically."""
    n = len(z)
    out = [0] * n
    for c, s in terms:
        if c == 0:
            continue
        s %= n
        rz = z[-s:] + z[:-s] if s else z
        out = [o + c * v for o, v in zip(out, rz)]
    return out


def _binom_terms(p: int, sign: int) -> list[tuple[int, int]]:
    """Coefficient terms of (1 + sign*chi)^p."""
    return [(math.comb(p, j) * (sign ** j), j) for j in range(p + 1)]


def _div_geom(z: list[int], den: int, k: int, n: int) -> tuple[list[int], int]:
    """Divide (z, den) by 1 - chi^k with gcd(k, n) = 1, modulo the norm ideal.

    The quotient exists after adding t times the norm vector, where t makes
    the coefficient sum vanish; the sum lives on the component killed by the
    quotient map, so the result is exact in Q[chi]/I<K>.
    """
    total = sum(z)
    if total % n:
        z = [v * n for v in z]
        den *= n
        total *= n
    t = -(total // n)
    if t:
        z = [v + t for v in z]
    else:
        z = list(z)
    if k == 1:
        return list(accumulate(z)), den
    y = [0] * n
    acc = 0
    idx = 0
    for _ in range(n):
        acc += z[idx]
        y[idx] = acc
        idx = (idx + k) % n
    return y, den


def _vec_canonical(z: Sequence[int], den: int) -> tuple[Fraction, ...]:
    top = z[-1]
    return tuple(Fraction(v - top, den) for v in z[:-1])


def _element_from_vec(K: int, z: Sequence[int], den: int) -> RingElement:
    return RingElement(K, _vec_canonical(z, den))


def _vec_is_in_4Z(z: Sequence[int], den: int) -> bool:
    top = z[-1]
    m = 4 * den
    return all((v - top) % m == 0 for v in z)


def _sum_vecs(vecs: Sequence[tuple[list[int], int]], n: int) -> tuple[list[int], int]:
    if not vecs:
        return [0] * n, 1
    den = math.lcm(*(d for _, d in vecs))
    out = [0] * n
    for z, d in vecs:
        s = den // d
        out = [o + s * v for o, v in zip(out, z)]
    return out, den


def _residue_images(vecs: Sequence[tuple[list[int], int]]):
    """Canonical difference vectors modulo 4*den, on one common denominator.

    Returns (rows, M): integer rows reduced mod M with the property that an
    integer combination sum(t_i * rows[i]) is congruent to 0 mod M in every
    entry exactly when the corresponding combination of ring values lies in
    4 * Z[chi]/I<K>.
    """
    den = math.lcm(*(d for _, d in vecs))
    m = 4 * den
    rows = []
    for z, d in vecs:
        s = den // d
        top = z[-1] * s
        rows.append([(v * s - top) % m for v in z])
    return rows, m


def _family_vec(
    K: int,
    k: int,
    *,
    f_power: int = 0,
    f2_minus_1: bool = False,
    scale: int = 1,
    times_one_minus_chi: int = 0,
) -> tuple[list[int], int]:
    """Internal vector for scale * f'_k * f^f_power * (f^2 - 1 when flagged).

    Optionally multiplied by (1 - chi)^times_one_minus_chi.  Everything is
    assembled from sparse products and geometric-series divisions.
    """
    n = _validate_level(K)
    _validate_odd(k)
    z = [0] * n
    z[0] = scale
    if k > 1:
        z = _mul_sparse(z, [((-1) ** j, j) for j in range(k)])
    if f_power:
        z = _mul_sparse(z, _binom_terms(f_power, 1))
    if f2_minus_1:
        z = _mul_sparse(z, [(4, 1)])
    net = 1 - f_power - (2 if f2_minus_1 else 0) + times_one_minus_chi
    if net > 0:
        z = _mul_sparse(z, _binom_terms(net, -1))
    den = 1
    z, den = _div_geom(z, den, k % n, n)
    for _ in range(-net if net < 0 else 0):
        z, den = _div_geom(z, den, 1, n)
    return z, den


def _int_coeffs(q) -> tuple[int, ...]:
    """Integer coefficient tuple from an IntPolynomial-like or a sequence."""
    coeffs = getattr(q, "coeffs", q)
    if isinstance(coeffs, (int, Fraction)):
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
) -> tuple[list[int], int]:
    """Internal vector for 8 * f'_k * f^m * q(f^2) (odd mode) or
    8 * f'_k * (f^2 - 1) * q(f^2) (even mode), optionally times (1-chi)^t.
    """
    n = _validate_level(K)
    _validate_odd(k)
    q = list(qcoeffs)
    while q and q[-1] == 0:
        q.pop()
    if not q:
        return [0] * n, 1
    deg = len(q) - 1
    # q(f^2) = P(chi) / (1-chi)^(2*deg) with
    # P = sum_j q_j (1+chi)^(2j) (1-chi)^(2(deg-j)), built by a Horner sweep.
    p = [0] * n
    g = [0] * n
    g[0] = 1
    for j in range(deg, -1, -1):
        if j < deg:
            p = _mul_sparse(p, [(1, 0), (2, 1), (1, 2)])
            g = _mul_sparse(g, [(1, 0), (-2, 1), (1, 2)])
        if q[j]:
            c = q[j]
            p = [a + c * b for a, b in zip(p, g)]
    z = [8 * v for v in p]
    if k > 1:
        z = _mul_sparse(z, [((-1) ** j, j) for j in range(k)])
    if mode == "odd":
        z = _mul_sparse(z, _binom_terms(m, 1))
        net = times_one_minus_chi + 1 - m - 2 * deg
    elif mode == "even":
        z = _mul_sparse(z, [(4, 1)])
        net = times_one_minus_chi - 1 - 2 * deg
    else:
        raise ValueError(f"mode must be 'odd' or 'even', got {mode!r}")
    if net > 0:
        z = _mul_sparse(z, _binom_terms(net, -1))
    den = 1
    z, den = _div_geom(z, den, k % n, n)
    for _ in range(-net if net < 0 else 0):
        z, den = _div_geom(z, den, 1, n)
    return z, den


# ---------------------------------------------------------------------------
# distinguished elements
# ---------------------------------------------------------------------------

def element_f(K: int) -> RingElement:
    """The element f = (1 + chi)/(1 - chi)."""
    return _element_from_vec(K, *_family_vec(K, 1, f_power=1))


def element_f_prime(K: int, k: int) -> RingElement:
    """The element f'_k, which has integer canonical coefficients."""
    _validate_odd(k)
    return _element_from_vec(K, *_family_vec(K, k))


def element_f_k(K: int, k: int) -> RingElement:
    """The element f_k = (1 + chi^k)/(1 - chi^k), computed directly."""
    n = _validate_level(K)
    _validate_odd(k)
    z = [0] * n
    z[0] = 1
    z[k % n] += 1
    z, den = _div_geom(z, 1, k % n, n)
    return _element_from_vec(K, z, den)


# ---------------------------------------------------------------------------
# conjugation, eigenspaces, membership
# ---------------------------------------------------------------------------

def conjugate(a: RingElement) -> RingElement:
    """Substitute chi -> chi^(N-1) and reduce to canonical form."""
    n = 1 << a.level
    z = [Fraction(0)] * n
    for j, c in enumerate(a.coeffs):
        z[(-j) % n] += c
    top = z[n - 1]
    return RingElement(a.level, tuple(v - top for v in z[:-1]))


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
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def is_in_4Z(a: RingElement) -> bool:
    """Exact test for membership in 4 * Z[chi]/I<K>.

    True exactly when every canonical coefficient is an integer divisible by
    four.  This is the test everything else in the package reduces to; it is
    not criterion-based.
    """
    return all(c.denominator == 1 and c.numerator % 4 == 0 for c in a.coeffs)


# ---------------------------------------------------------------------------
# the level tower: projection, reconstruction, inversion
# ---------------------------------------------------------------------------

def _fold(coeffs: Sequence[Rational], l: int) -> list[Rational]:
    """Reduce sum(c_j * chi^j) modulo 1 + chi^(2^l): chi^(2^l) = -1."""
    m = 1 << l
    out: list[Rational] = [0] * m
    for j, c in enumerate(coeffs):
        if c:
            if (j >> l) & 1:
                out[j & (m - 1)] -= c
            else:
                out[j & (m - 1)] += c
    return out


def project(a: RingElement, l: int) -> LevelProjection:
    """Project onto Q[chi]/<1 + chi^(2^l)> for 0 <= l <= K-1."""
    if not isinstance(l, int) or isinstance(l, bool) or l < 0 or l > a.level - 1:
        raise ValueError(
            f"projection level must satisfy 0 <= l <= {a.level - 1}, got {l!r}"
        )
    return LevelProjection(l, tuple(_fold(a.coeffs, l)))


def crt_reconstruct(parts: Sequence[LevelProjection]) -> RingElement:
    """Reassemble the unique ring element with the given projections.

    parts must list one projection per level l = 0, ..., K-1.  This inverts
    the split level by level: with s the element modulo chi^(2^l) - 1
    (starting from 0 as the chi = 1 part) and d the level-l part, the element
    modulo chi^(2^(l+1)) - 1 has halves lo = (s + d)/2 and hi = (s - d)/2.
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
    s: list[Fraction] = [Fraction(0)]
    for p in parts:
        s = ([(x + y) / 2 for x, y in zip(s, p.coeffs)]
             + [(x - y) / 2 for x, y in zip(s, p.coeffs)])
    return make_element(K, s)


def _invert_level(p: LevelProjection) -> LevelProjection:
    """Inverse of a nonzero p in the field Q[chi]/<1 + chi^(2^l)>.

    p^-1 = p(-chi) * (p(chi) * p(-chi))^-1, where the norm p(chi) * p(-chi)
    is even in chi and so lives at level l - 1 in chi^2.
    """
    if p.level == 0:
        return LevelProjection(0, (1 / p.coeffs[0],))
    conj = LevelProjection(
        p.level, tuple(-c if j & 1 else c for j, c in enumerate(p.coeffs))
    )
    norm = (p * conj).coeffs[::2]
    inv = _invert_level(LevelProjection(p.level - 1, norm)).coeffs
    spread = [Fraction(0)] * (2 * len(inv))
    spread[::2] = inv
    return conj * LevelProjection(p.level, tuple(spread))


def invert(a: RingElement) -> RingElement:
    """Multiplicative inverse in Q[chi]/I<K>.

    Projects to every level, inverts each part in its field and reassembles.
    Raises ValueError when the element is not invertible, which is exactly
    when some projection is zero (0 included).
    """
    parts = [project(a, l) for l in range(a.level)]
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
    if mode == "odd":
        mm = 1 if m is None else m
        if mm not in (1, 2):
            raise ValueError(f"m must be 1 or 2 in odd mode, got {m!r}")
    elif mode == "even":
        if m is not None:
            raise ValueError("even mode does not take an exponent m")
        mm = 1
    else:
        raise ValueError(f"mode must be 'odd' or 'even', got {mode!r}")
    if not isinstance(times_one_minus_chi, int) or times_one_minus_chi < 0:
        raise ValueError("times_one_minus_chi must be a non-negative integer")
    coeffs = _int_coeffs(q)
    z, den = _eval_f2_vec(coeffs, K, k, mode, mm, times_one_minus_chi)
    return _element_from_vec(K, z, den)


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"-?\d+(?:/[1-9]\d*)?")


def _format_rational(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def element_to_text(a: RingElement) -> str:
    """Serialize as `K=<int>; <c0>,<c1>,...` with rationals in lowest terms."""
    return f"K={a.level}; " + ",".join(_format_rational(c) for c in a.coeffs)


def element_from_text(text: str) -> RingElement:
    """Parse the serialization produced by element_to_text.

    Parsing is strict: the level prefix, the separator, the token syntax and
    the coefficient count are all enforced.
    """
    body = text.rstrip("\n")
    match = re.fullmatch(r"K=(\d+); (.*)", body, flags=re.DOTALL)
    if not match:
        raise ValueError("malformed element text: expected 'K=<int>; c0,c1,...'")
    K = int(match.group(1))
    n = _validate_level(K)
    tokens = match.group(2).split(",")
    if len(tokens) != n - 1:
        raise ValueError(
            f"wrong coefficient count for level {K}: expected {n - 1},"
            f" got {len(tokens)}"
        )
    coeffs = []
    for tok in tokens:
        if not _RATIONAL_RE.fullmatch(tok):
            raise ValueError(f"malformed rational token {tok!r}")
        coeffs.append(Fraction(tok))
    return RingElement(K, tuple(coeffs))
