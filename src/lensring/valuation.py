"""Level valuations w_l, normal forms, and the divisibility criteria.

For g in Q[chi]/I<K> and 0 <= l <= K-1, project g to Q[chi]/<1 + chi^(2^l)>.
A nonzero projection p has a unique normal form

    p = (2^a / u) * ((1 - chi)^b * v1 + 2 * v2)

with u odd, 0 <= b < 2^l, v1 and v2 integer polynomials, and v1(1) odd.  The
valuation is

    w_l(g) = a + b / 2^l,

or infinity when the projection vanishes.  The pair (a, b) is independent of
every choice made while computing it.  `w_l` reads it without witnesses: a
is the least v_2 of a coefficient of p, and b is the first odd coefficient
of 2^-a p in powers of (1 - chi) mod 2.  Over GF(2), x^h = 1 + (1 + x)^h
for h = 2^i, so the parities lo + x^h hi split as (lo + hi) + (1 + x)^h hi
and b is read by halving one int of parity bytes l times.  `normal_form`
also returns the witnesses v1, v2, so a caller can replay the
factorization.  Valuations compare as integers, without `Fraction`s.

Valuations obey a product rule (w_l of a product is the sum) and the usual
ultrametric-style sum rules, and they power two membership criteria for
4 * Z[chi]/I<K>.  Both criteria require the hypothesis that every projection
pr_l(g) lies in 4 * Z[chi]/<1 + chi^(2^l)>; under it,

  * w_l(g) >= 2 + K - l - 2^(-l) for every l proves membership;
  * an integral h with w_l(g) + w_l(h) >= 2 + K - l - 2^(-l) for every
    l != l_star and < at l_star proves non-membership.

The criteria return three-valued verdicts and never guess: failing to prove
is reported as inconclusive, not as the opposite claim.  All three read
the integer thresholds T_l = 2^l (bound - w_l(g)) of `_thresholds`: the
bound holds at level l when T_l <= 0, and a witness h is deficient there
when 2^l w_l(h) < T_l.  The search takes w_l((1 - chi)^j) = j / 2^l from
the product rule and reads its witness off the thresholds.  They, and
`_valuations`, read the raw integer part of every level, numerators over
the element's denominator, off one descent of the tower (`ring._tower`),
without building a `LevelProjection`.

`_LevelValue` reads the valuation of a `cli` expression by the product and
sum rules, and builds something only for a sum of two equal valuations:
its polynomial in one atom (`_family_polynomial_valuation`), its residue
mod pi^T (`_Residue`), or, when that residue is zero, its element.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, partial
from operator import add, mul, neg, sub
from typing import Callable, Iterable, Iterator, Sequence

from .polynomials import IntPolynomial, ONE, X, _v2
from .ring import (LevelProjection, RingElement, _decimal_int, _decimal_str,
                   _family_vec, _power, _shown, _tower, _validate_natural,
                   _validate_odd, _wrap, project)

__all__ = [
    "Valuation",
    "NormalForm",
    "normal_form",
    "normal_form_reconstruct",
    "w_l",
    "CriterionVerdict",
    "criterion_sufficient",
    "criterion_necessary",
    "criterion_necessary_search",
    "membership_bound",
    "x_polynomial",
    "valuation_to_text",
    "valuation_from_text",
]


@dataclass(frozen=True)
class Valuation:
    """The value a + b/2^level with 0 <= b < 2^level, or infinity.

    Infinity is the triple (None, None, None); finite values keep their
    level so that the fractional part stays in canonical form.
    """

    a: int | None
    b: int | None
    level: int | None

    def __post_init__(self) -> None:
        parts = (self.a, self.b, self.level)
        if all(p is None for p in parts):
            return
        if any(p is None for p in parts):
            raise ValueError("either all of a, b, level are set or none are")
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool):
                raise ValueError("a, b, level must be integers")
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if self.b < 0 or self.b.bit_length() > self.level:
            raise ValueError(
                f"b must satisfy 0 <= b < 2^{_shown(self.level)},"
                f" got {_shown(self.b)}"
            )

    @classmethod
    def _unchecked(cls, a: int, b: int, level: int) -> "Valuation":
        """A finite valuation from parts already canonical: no checks."""
        v = object.__new__(cls)
        vars(v).update(a=a, b=b, level=level)
        return v

    @classmethod
    def infinite(cls) -> "Valuation":
        return cls(None, None, None)

    @classmethod
    def finite(cls, a: int, b: int, level: int) -> "Valuation":
        return cls(a, b, level)

    @property
    def is_infinite(self) -> bool:
        return self.a is None

    def value(self) -> Fraction:
        if self.is_infinite:
            raise ValueError("the infinite valuation has no rational value")
        return Fraction(self.a) + Fraction(self.b, 1 << self.level)

    def __add__(self, other: "Valuation") -> "Valuation":
        if not isinstance(other, Valuation):
            return NotImplemented
        if self.is_infinite or other.is_infinite:
            return Valuation.infinite()
        if self.level != other.level:
            raise ValueError("cannot add valuations at different levels")
        return Valuation._from_scaled(self._scaled() + other._scaled(),
                                      self.level)

    def _scaled(self) -> int:
        """The value times 2^level: (a << level) + b."""
        return (self.a << self.level) + self.b

    @classmethod
    def _from_scaled(cls, scaled: int, level: int) -> "Valuation":
        """The finite valuation scaled / 2^level."""
        return cls._unchecked(scaled >> level, scaled & ((1 << level) - 1),
                              level)

    def __lt__(self, other: "Valuation") -> bool:
        if not isinstance(other, Valuation):
            return NotImplemented
        if self.is_infinite or other.is_infinite:
            return other.is_infinite and not self.is_infinite
        return self._scaled() << other.level < other._scaled() << self.level

    def __le__(self, other: "Valuation") -> bool:
        if not isinstance(other, Valuation):
            return NotImplemented
        return not other < self

    def at_least(self, bound: Fraction) -> bool:
        """True when the valuation is infinite or >= the rational bound."""
        return self.is_infinite or (
            self._scaled() * bound.denominator >= bound.numerator << self.level)

    def below(self, bound: Fraction) -> bool:
        """True when the valuation is finite and strictly below the bound."""
        return not self.at_least(bound)


def valuation_to_text(v: Valuation) -> str:
    """Serialize as `a+b/2^l`, for instance `0+3/2^2`, or `inf`, however
    wide (`ring._decimal_str`)."""
    if v.is_infinite:
        return "inf"
    return "{}+{}/2^{}".format(*map(_decimal_str, (v.a, v.b, v.level)))


_VALUATION_RE = re.compile(r"(-?[0-9]+)\+([0-9]+)/2\^([0-9]+)")


def valuation_from_text(text: str) -> Valuation:
    """Parse `valuation_to_text`'s `a+b/2^l` or `inf`, then trailing
    newlines, and nothing else: ASCII digits read by `ring._decimal_int`,
    0 <= b < 2^l checked by `Valuation`, and no leading zero, `-0` or
    space."""
    body = text.rstrip("\n")
    if body == "inf":
        return Valuation.infinite()
    match = _VALUATION_RE.fullmatch(body)
    v = match and Valuation(*map(_decimal_int, match.groups()))
    if not v or valuation_to_text(v) != body:
        raise ValueError(f"malformed valuation text {text!r}")
    return v


# ---------------------------------------------------------------------------
# normal form of a nonzero projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalForm:
    """Witnessed factorization p = (2^a / u)((1-chi)^b v1 + 2 v2)."""

    a: int
    b: int
    u: int
    v1: IntPolynomial
    v2: IntPolynomial


def _expand_in_monomials(coeffs: Sequence[int]) -> IntPolynomial:
    """sum of coeffs[e] * (1 - chi)^e as a polynomial in chi, by Horner.

    As chi -> 1 - chi is an involution, this also reads the coefficients
    of a polynomial in chi in powers of (1 - chi): applied twice it is the
    identity.
    """
    out: list[int] = []
    for c in reversed(coeffs):
        out = [x - y for x, y in zip(out + [0], [0] + out)]
        out[0] += c
    return IntPolynomial(tuple(out))


def normal_form(p: LevelProjection) -> NormalForm:
    """Normal form of a nonzero projection.

    Clears denominators with the lcm and splits off the minimal two-adic
    valuation of the coefficients zm of the integer vector in powers of
    (1 - chi).  Both zm and the witnesses v1, v2 come from one expansion,
    `_expand_in_monomials`: chi -> 1 - chi is an involution, so it reads
    zm off p(1 - chi) and rebuilds the witnesses in chi from their parts
    of zm.  The returned (a, b) do not depend on the clearing strategy and
    equal those `w_l` reads without witnesses; the witnesses certify the
    factorization.
    """
    if p.is_zero():
        raise ValueError("the zero projection has no normal form")
    a1 = _v2(p.den)
    zm = _expand_in_monomials(p.nums).coeffs
    a2 = min(_v2(v) for v in zm if v)
    b = next(m for m, v in enumerate(zm) if v and _v2(v) == a2)
    v1 = _expand_in_monomials([v >> a2 for v in zm[b:]])
    v2 = _expand_in_monomials([v >> (a2 + 1) for v in zm[:b]])
    if v1(1) % 2 == 0:
        raise ArithmeticError("normal form witness v1 must be odd at 1")
    return NormalForm(a2 - a1, b, p.den >> a1, v1, v2)


def normal_form_reconstruct(nf: NormalForm, level: int) -> LevelProjection:
    """Rebuild the projection certified by a normal form."""
    base = ((ONE - X) ** nf.b) * nf.v1 + 2 * nf.v2
    return _in_level(level, base.coeffs) * (Fraction(2) ** nf.a / nf.u)


def _valuation(nums: Sequence[int], den: int, level: int) -> Valuation:
    """(a, b) of the normal form of the level part nums / den, read off
    without witnesses; nums / den need not be in lowest terms.

    The basis change from chi^j to (1 - chi)^m is unimodular over Z, so a is
    the least v_2 over the coefficients, and b is the lowest m at which the
    parities P of 2^-a nums / den have an odd (1 + chi)^m coefficient.  Over
    GF(2), x^h = 1 + (1 + x)^h for h = 2^i, so P = lo + x^h hi, both halves
    of degree < h, is (lo + hi) + (1 + x)^h hi: b is below h exactly when
    lo != hi, and is read off lo + hi then, else off hi plus h.  Each halving
    splits one int with a parity byte per coefficient.  A common odd factor
    of nums and den changes no parity.
    """
    if not any(nums):
        return Valuation.infinite()
    # the least v_2 of a numerator, and the numerators that attain it
    low = _v2(math.gcd(*nums))
    x = int.from_bytes(bytes([v >> low & 1 for v in nums]), "little")
    b = 0
    for i in reversed(range(level)):
        shift = 8 << i
        lo, hi = x & ((1 << shift) - 1), x >> shift
        if lo != hi:
            x = lo ^ hi
        else:
            x, b = hi, b + (1 << i)
    return Valuation._unchecked(low - _v2(den), b, level)


def _power_valuation(w: Valuation, e: int, level: int) -> Valuation:
    """w_l(a^e) = e w_l(a) by the product rule, from w = w_l(a); a^0 = 1
    has valuation 0 even for a = 0."""
    if not e:
        return Valuation._unchecked(0, 0, level)
    return w if w.is_infinite else Valuation._from_scaled(w._scaled() * e,
                                                          level)


def _family_polynomial_valuation(coeffs: Sequence[int],
                                 level: int) -> Valuation:
    """w_l(P(a)) for the integer polynomial P = coeffs of degree < 2^l and
    a = f or a Galois conjugate f_k (k odd): with P(1 + y) = sum_j d_j y^j,
    P(a) = sum_j d_j (a - 1)^j, and as w_l(a - 1) = w_l(2 chi / (1 - chi))
    = 1 - 2^-l, the terms have the pairwise different valuations
    v_2(d_j) + j (1 - 2^-l) (j < 2^l), so w_l(P(a)) is the least of them.
    `_expand_in_monomials` gives the d_j up to sign, as (1 + y)^j at
    y = -chi is (1 - chi)^j."""
    d = _expand_in_monomials(coeffs).coeffs
    if not d:
        return Valuation.infinite()
    return Valuation._from_scaled(
        min(((_v2(c) + j) << level) - j for j, c in enumerate(d) if c), level)


def w_l(g: RingElement, l: int) -> Valuation:
    """The level-l valuation of g; infinite exactly when pr_l(g) = 0.

    Reads (a, b) of the normal form of pr_l(g) without building its
    witnesses: 2^l coefficient valuations and l halvings of one int of 2^l
    parity bytes.  `normal_form` builds the witnesses.
    """
    p = project(g, l)
    return _valuation(p.nums, p.den, l)


def _valuations(g: RingElement) -> list[Valuation]:
    """w_l(g) at every level l < K, in order, from one `_tower` descent."""
    den = g.den
    return [_valuation(part, den, l) for l, part in enumerate(_tower(g.nums))]


# ---------------------------------------------------------------------------
# values of the level-l field known by their valuation
# ---------------------------------------------------------------------------

def _in_level(l: int, coeffs: Sequence[int], den: int = 1) -> LevelProjection:
    """The polynomial coeffs(chi) / den (den > 0) in the level-l field,
    folded by chi^(2^l) = -1: the one way a coefficient list enters it."""
    return LevelProjection._from_ints(l, _wrap(coeffs, 1 << l, -1), den)


def _family_atom(l: int, k: int, f_power: int) -> LevelProjection:
    """f'_k f^f_power (f_power 0 or 1) in the level-l field: pr_l of its
    level-(l+1) window (`ring._family_vec`), whose entries e fold to
    e_j - e_(j+2^l), as the canonical shift by the last entry cancels."""
    window = _family_vec(l + 1, k, f_power=f_power)
    return _in_level(l, window.entries(2 << l), window.den)


# the atom of a value not known as P(atom) with deg P < 2^l
_MIXED = -1
# what `_LevelValue.built` builds: the element, P, or the residue mod pi^T
_ELEMENT, _POLYNOMIAL, _RESIDUE = range(3)
# residues are kept mod pi^T with T = min(2^l, 2^_RESIDUE_LEVEL), so a
# product costs at most T shifts and xors of ints of 2T bits
_RESIDUE_LEVEL = 10


class _Residue:
    """An integral value x of the level-l field modulo pi^T, pi = 1 - chi,
    T = min(2^l, 2^_RESIDUE_LEVEL): as 2 is a unit times pi^(2^l), that
    ring is F_2[pi]/<pi^T>, held as the bits of one int (bit i for pi^i).
    When it is nonzero, its lowest set bit is v_pi(x) = 2^l w_l(x)."""

    __slots__ = ("mask", "bits")

    def __init__(self, bits: int, mask: int) -> None:
        self.mask, self.bits = mask, bits & mask

    @classmethod
    def at(cls, level: int, bits: int) -> "_Residue":
        return cls(bits, (1 << (1 << min(level, _RESIDUE_LEVEL))) - 1)

    def __add__(self, other: "_Residue") -> "_Residue":
        return _Residue(self.bits ^ other.bits, self.mask)

    __sub__ = __add__

    def __neg__(self) -> "_Residue":
        return self

    def __mul__(self, other: "_Residue") -> "_Residue":
        """The carry-less product: one shifted copy of the denser operand
        per set bit of the sparser."""
        a, b = sorted((self.bits, other.bits), key=int.bit_count)
        out = 0
        while a:
            low = a & -a
            out ^= b * low
            a ^= low
        return _Residue(out, self.mask)

    def __pow__(self, e: int) -> "_Residue":
        return _power(self, e, _Residue(1, self.mask))


class _LevelValue:
    """A value of `cli`'s expression language in the level-l field: its
    valuation w, read at once, and its element, deferred.

    w is the normalized valuation of Q(zeta), zeta of order 2^(l + 1), in
    which 2 is totally ramified, so w(ab) = w(a) + w(b), w(a^e) = e w(a),
    and w(a +- b) = min(w(a), w(b)) when the two differ; a zero operand
    (w infinite) drops out of a sum.  Only a sum of two equal finite
    valuations needs more, the first of these that answers:
      * `atom` is k mod 2^(l + 1) when the value is P(f_k) for an integer
        polynomial P of degree at most `degree` < 2^l, None when it is an
        integer, else _MIXED; a sum of two such values reads w off P
        (`_family_polynomial_valuation`);
      * every value is integral, so its residue mod pi^T (`_Residue`) is
        built, and w is read off the sum's when that is nonzero;
      * else both sides are built, and w is read off the sum.

    `op` applied to `args` (values built first), or to nothing for an
    atom, builds the element; on the polynomials or the residues of the
    args it builds P or the residue, which an atom holds from the start.
    `_built` keeps what is built, indexed by _ELEMENT, _POLYNOMIAL and
    _RESIDUE.
    """

    __slots__ = ("level", "w", "atom", "degree", "op", "args", "_built")

    def __init__(self, level: int, w: Valuation, atom: int | None,
                 degree: int, op: Callable, *args, poly=None,
                 residue=None) -> None:
        self.level, self.w, self.atom, self.degree = level, w, atom, degree
        self.op, self.args = op, args
        self._built = [None, poly, residue]

    @classmethod
    def integer(cls, l: int, c: int) -> "_LevelValue":
        """c, of valuation v_2(c) (infinite for 0), and P = c for any
        atom."""
        w = Valuation.infinite() if not c else Valuation._unchecked(
            _v2(c), 0, l)
        return cls(l, w, None, 0, partial(_in_level, l, [c]),
                   poly=IntPolynomial((c,)), residue=_Residue.at(l, c & 1))

    @classmethod
    def chi(cls, l: int) -> "_LevelValue":
        """chi = 1 - pi, a unit."""
        return cls(l, Valuation._unchecked(0, 0, l), _MIXED, 0,
                   partial(_in_level, l, [0, 1]),
                   residue=_Residue.at(l, 0b11))

    @classmethod
    def family(cls, l: int, k: int, f_power: int) -> "_LevelValue":
        """f'_k f^f_power: fpk(k), fk(k) = f'_k f = f_k, or f = f_1, built
        off its family window (`_family_atom`).  f'_k is a unit, and f_k is
        one for l >= 1 and 0 at l = 0; f_k is P(f_k) for P = x, named by
        k mod 2^(l + 1), the order of chi.  Mod 2, f_k has all its
        coefficients odd but the constant, like f = chi + ... + chi^(M-1)
        (M = 2^l), which is 1 + pi^(M-1) as 1 + chi + ... + chi^(M-1) =
        (1 + chi)^(M-1) over F_2; so f'_k = f_k / f is 1 mod 2."""
        _validate_odd(k)
        build = partial(_family_atom, l, k, f_power)
        if not f_power:
            return cls(l, Valuation._unchecked(0, 0, l), _MIXED, 0, build,
                       residue=_Residue.at(l, 1))
        residue = _Residue.at(l, 1 ^ (1 << (1 << l) - 1)
                              if l <= _RESIDUE_LEVEL else 1)
        if not l:
            return cls(l, Valuation.infinite(), _MIXED, 0, build,
                       residue=residue)
        return cls(l, Valuation._unchecked(0, 0, l), k % (2 << l), 1, build,
                   poly=X, residue=residue)

    def _joint(self, other: "_LevelValue",
               degree: int) -> tuple[int | None, int]:
        """The atom and degree of a sum or product of degree `degree`."""
        atom = (other.atom if self.atom is None else self.atom
                if other.atom in (None, self.atom) else _MIXED)
        if atom == _MIXED or degree >> self.level:
            return _MIXED, 0
        return atom, degree

    def __neg__(self) -> "_LevelValue":
        return _LevelValue(self.level, self.w, self.atom, self.degree, neg,
                           self)

    def __mul__(self, other: "_LevelValue") -> "_LevelValue":
        return _LevelValue(self.level, self.w + other.w,
                           *self._joint(other, self.degree + other.degree),
                           mul, self, other)

    def __pow__(self, e: int) -> "_LevelValue":
        if not e:
            return _LevelValue.integer(self.level, 1)
        return _LevelValue(self.level,
                           _power_valuation(self.w, e, self.level),
                           *self._joint(self, self.degree * e), pow, self, e)

    def __add__(self, other: "_LevelValue") -> "_LevelValue":
        return self._sum(other, add)

    def __sub__(self, other: "_LevelValue") -> "_LevelValue":
        return self._sum(other, sub)

    def _sum(self, other: "_LevelValue", op: Callable) -> "_LevelValue":
        if other.w.is_infinite:
            return self
        if self.w.is_infinite:
            return other if op is add else -other
        l = self.level
        value = _LevelValue(l, min(self.w, other.w),
                            *self._joint(other, max(self.degree,
                                                    other.degree)),
                            op, self, other)
        if self.w != other.w:
            return value
        if value.atom != _MIXED:
            value.w = _family_polynomial_valuation(
                value.built(_POLYNOMIAL).coeffs, l)
        elif bits := value.built(_RESIDUE).bits:
            value.w = Valuation._from_scaled((bits & -bits).bit_length() - 1,
                                             l)
        else:
            p = value.built(_ELEMENT)
            value.w = _valuation(p.nums, p.den, l)
        return value

    def built(self, algebra: int):
        """The element, P or the residue (algebra _ELEMENT, _POLYNOMIAL or
        _RESIDUE), built operands first by one loop, not by recursion, as
        an untied chain of sums or products is as deep as the expression
        is long."""
        stack = [self]
        while stack:
            value = stack[-1]
            if value._built[algebra] is None:
                todo = [a for a in value.args if type(a) is _LevelValue
                        and a._built[algebra] is None]
                if todo:
                    stack += todo
                    continue
                value._built[algebra] = value.op(*(
                    a._built[algebra] if type(a) is _LevelValue else a
                    for a in value.args))
            stack.pop()
        return self._built[algebra]


# ---------------------------------------------------------------------------
# membership criteria
# ---------------------------------------------------------------------------

class CriterionVerdict(Enum):
    PROVES_MEMBERSHIP = "proves-membership"
    PROVES_NON_MEMBERSHIP = "proves-non-membership"
    INCONCLUSIVE = "inconclusive"


def _scaled_bound(K: int, l: int) -> int:
    """2^l times the membership bound at level l."""
    return ((2 + K - l) << l) - 1


def membership_bound(K: int, l: int) -> Fraction:
    """The threshold 2 + K - l - 2^(-l)."""
    return Fraction(_scaled_bound(K, l), 1 << l)


def _thresholds(g: RingElement) -> Iterator[int | None] | None:
    """T_l = 2^l (bound - w_l(g)) at each level l in turn, None where
    w_l(g) is infinite, from the numerators of every level part over g.den;
    None when g fails the hypothesis: when some numerator is not a multiple
    of 4 den (gcd(4 den, *part) == 4 den, small after its first step)."""
    parts, m = _tower(g.nums), 4 * g.den
    if any(math.gcd(m, *p) != m for p in parts):
        return None
    ws = (_valuation(p, g.den, l) for l, p in enumerate(parts))
    return (None if w.is_infinite
            else _scaled_bound(g.level, w.level) - w._scaled() for w in ws)


def criterion_sufficient(g: RingElement) -> CriterionVerdict:
    """Prove membership in 4 Z[chi]/I<K> from valuations alone.

    Requires every projection of g to lie in 4 Z[chi]/<1 + chi^(2^l)>;
    otherwise, and whenever some valuation falls below the bound (T_l > 0),
    the verdict is inconclusive.
    """
    thresholds = _thresholds(g)
    if thresholds is None or any(t is not None and t > 0 for t in thresholds):
        return CriterionVerdict.INCONCLUSIVE
    return CriterionVerdict.PROVES_MEMBERSHIP


def _only_deficient(thresholds: Iterable[int | None] | None,
                    wh: Sequence[Valuation], l_star: int) -> bool:
    """True when l_star is the one level where w_l(g) + w_l(h) falls below
    the bound, 2^l w_l(h) < T_l, from g's `_thresholds` and the witness's
    valuations w_l(h)."""
    return thresholds is not None and [
        l for l, (t, w) in enumerate(zip(thresholds, wh))
        if t is not None and not w.is_infinite and w._scaled() < t] == [l_star]


def criterion_necessary(g: RingElement, h: RingElement,
                        l_star: int) -> CriterionVerdict:
    """Prove non-membership with a witness h, integral and at g's level:
    proves-non-membership when l_star is the one deficient level."""
    if g.level != h.level:
        raise ValueError(f"level mismatch: {g.level} vs {h.level}")
    if not h.is_integral():
        raise ValueError("the witness h must have integer coefficients")
    K = g.level
    if not isinstance(l_star, int) or isinstance(l_star, bool) \
            or not 0 <= l_star < K:
        raise ValueError(f"l_star must satisfy 0 <= l_star < {K}")
    if _only_deficient(_thresholds(g), _valuations(h), l_star):
        return CriterionVerdict.PROVES_NON_MEMBERSHIP
    return CriterionVerdict.INCONCLUSIVE


@cache
def _one_minus_chi_valuations(K: int, j: int) -> tuple[Valuation, ...]:
    """w_l((1 - chi)^j) = j / 2^l for l < K, by the product rule."""
    return tuple(Valuation._unchecked(j >> l, j % (1 << l), l)
                 for l in range(K))


def criterion_necessary_search(g: RingElement, max_power: int | None = None):
    """The first witness h = (1 - chi)^j, j = 0..max_power (an int >= 0,
    2^K by default), with exactly one deficient level: (verdict, j,
    l_star), or (inconclusive, None, None).  As 2^l w_l(h) = j, level l is
    deficient exactly when j < T_l, and never when w_l(g) is infinite: that
    j is max(T_(2), 0) for the two largest thresholds T_(1) > T_(2), l_star
    the level of T_(1), and it is confirmed once by the deficiency rule.
    No power is built or scanned."""
    K = g.level
    if max_power is None:
        max_power = 1 << K
    _validate_natural(max_power, "max_power")
    thresholds = _thresholds(g)
    if thresholds is not None:
        thresholds = list(thresholds)
        # two sentinels stand for levels that are never deficient
        *_, (low, _), (top, l_star) = [(0, None), (0, None), *sorted(
            (t, l) for l, t in enumerate(thresholds) if t is not None)]
        j = max(low, 0)
        if j < min(top, max_power + 1) and _only_deficient(
                thresholds, _one_minus_chi_valuations(K, j), l_star):
            return CriterionVerdict.PROVES_NON_MEMBERSHIP, j, l_star
    return CriterionVerdict.INCONCLUSIVE, None, None


# ---------------------------------------------------------------------------
# the x_m family
# ---------------------------------------------------------------------------

@cache
def x_polynomial(m: int) -> IntPolynomial:
    """x_0 = -chi and x_m = chi^(2^(m-1)) + 2 x_{m-1} (1 + chi^(2^(m-1)) + x_{m-1}).

    These satisfy (1 - chi)^(2^m) = 2 x_m + (1 + chi^(2^m)) identically in
    Z[chi], which splits powers of (1 - chi) across projection levels.
    """
    _validate_natural(m, "m")
    if m == 0:
        return IntPolynomial((0, -1))
    prev = x_polynomial(m - 1)
    mono = X ** (1 << (m - 1))
    return mono + 2 * prev * (ONE + mono + prev)
