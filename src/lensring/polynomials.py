"""The best polynomial families and the kernel lattices they generate.

Three integer polynomial families are built here:

  * p_k(x) = sum_j C(2^k, 2j) x^j, monic of degree 2^(k-1).  It satisfies
    p_k(f^2) (1-chi)^(2^k) = 2^(2^k - 1) (1 + chi^(2^k)) in Z[chi]/I<K> for
    every K > k, and the paper's recursion p_1 = x + 1, p_{k+1}(x) =
    p_k((x+1)^2 / 4x) (4x)^(2^(k-1)); the tests check both properties.

  * q_n = p_1 p_2 ... p_a (x-1)^b where n + 1 = 2^a + b with 0 <= b < 2^a.
    These are monic of degree n and realize the best possible divisibility
    order for their degree.

  * r^-_n, the unique correction of q_n by lower r^-_l (l < floor(n/2))
    scaled by 2^(2(n-l)-1) whose associated element 8 f'_k f^m r^-_n(f^2)
    lands in 4 Z[chi]/I<K> at K = 2n + 2; and r^+_n, its image under the
    degree-preserving bijection beta.

On top of these sit the lattices of polynomial residues

    A^(k,m)_K(d) = { q : 8 f'_k f^m q(f^2)        in 4 Z[chi]/I<K> }   (odd d)
    A^k_K(d)     = { q : 8 f'_k (f^2-1) q(f^2)    in 4 Z[chi]/I<K> }   (even d)

viewed inside (Z_{2^K})^c with c = (d-1)/2 rounded down, together with the
claimed basis

    B_K(d) = span{ 2^max(K-2n-2, 0) * r^{-/+}_n : 0 <= n <= c-1 }

and an oracle that reads A off a 2-adic elimination over Z/2^mu so the two
can be compared.  The Howell kernel, the Hermite form and the Smith form
all take one elimination step, `_pivot`.  All arithmetic is exact; nothing
is enumerated, but the oracles raise BudgetExceededError when (2^K)^c
exceeds the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import zip_longest
from math import gcd
from operator import mul
from typing import Callable, Sequence

from . import ring

__all__ = [
    "IntPolynomial",
    "X",
    "ONE",
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "p_k",
    "split_n",
    "q_n",
    "RMinusRecord",
    "r_minus",
    "r_plus",
    "beta",
    "beta_inv",
    "membership_A",
    "LatticeDescriptor",
    "b_basis",
    "brute_force_A",
    "LatticeComparisonReport",
    "verify_A_equals_B",
    "ShapeRemarkReport",
    "shape_remark_report",
    "reset_polynomial_tables",
]

DEFAULT_BUDGET = 1 << 20


class BudgetExceededError(RuntimeError):
    """A lattice or kernel was requested in a group (Z_{2^K})^c larger than
    the budget."""


def _refuse_over(budget: int | None, over: Callable[[int], bool],
                 what: str) -> None:
    """BudgetExceededError naming what, when over(budget) holds for the
    budget (DEFAULT_BUDGET when None) or the budget is negative."""
    budget = DEFAULT_BUDGET if budget is None else budget
    if budget < 0 or over(budget):
        try:
            named = f"the budget of {budget}"
        except ValueError:
            # past Python's int-to-str digit limit: name it by its length
            named = f"a budget of {budget.bit_length()} bits"
        raise BudgetExceededError(f"{what}, over {named}")


def _check_budget(K: int, c: int, budget: int | None, what: str) -> None:
    """The group (Z_2^K)^c of a lattice or kernel request against the
    budget: 2^(K c) > budget, read off bit lengths without building it."""
    _refuse_over(budget, lambda b: K * c >= b.bit_length(),
                 f"{what} lies in (Z_2^{ring._shown(K)})^{ring._shown(c)}"
                 f" of 2^{ring._shown(K * c)} tuples")


def _check_count(count: int, budget: int | None, what: str,
                 units: str) -> None:
    """A count of items to build, torsion summands or basis rungs, against
    the budget."""
    _refuse_over(budget, lambda b: count > b,
                 f"{what} has {ring._shown(count)} {units}")


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, ascending coefficients, trailing zeros trimmed.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = list(self.coeffs)
        for c in coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(
                    f"coefficients must be ints, got {ring._shown(c)}")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, j: int) -> int:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return IntPolynomial(tuple(
            x + y for x, y in zip_longest(self.coeffs, other.coeffs,
                                          fillvalue=0)))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return IntPolynomial(
            tuple(ring._poly_mul_int(self.coeffs, other.coeffs))
        )

    def __rmul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, e: int) -> "IntPolynomial":
        return ring._power(self, e, ONE)

    def shift(self, j: int) -> "IntPolynomial":
        """Multiply by x^j."""
        if j < 0:
            raise ValueError("shift must be non-negative")
        if self.is_zero():
            return self
        return IntPolynomial((0,) * j + self.coeffs)

    def __call__(self, x):
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for j in range(self.degree, -1, -1):
            c = self.coefficient(j)
            if c == 0:
                continue
            mag = abs(c)
            if j == 0:
                body = str(mag)
            elif j == 1:
                body = "x" if mag == 1 else f"{mag}x"
            else:
                body = f"x^{j}" if mag == 1 else f"{mag}x^{j}"
            parts.append(("+" if c > 0 else "-", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


X = IntPolynomial((0, 1))
ONE = IntPolynomial((1,))


# ---------------------------------------------------------------------------
# the p_k family
# ---------------------------------------------------------------------------

@cache
def p_k(k: int) -> IntPolynomial:
    """The k-th base polynomial, sum_j C(2^k, 2j) x^j, by a running product.

    With M = 2^k, 1 + f = 2/(1 - chi) and 1 - f = -2 chi/(1 - chi), so
    p_k(f^2) = ((1 + f)^M + (1 - f)^M)/2 = 2^(M-1) (1 + chi^M)/(1 - chi)^M.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(
            f"k must be a positive integer, got {ring._shown(k)}")
    M = 1 << k
    row = [1]
    for i in range(M):
        row.append(row[-1] * (M - i) // (i + 1))
    return IntPolynomial(tuple(row[::2]))


def split_n(n: int) -> tuple[int, int]:
    """Write n + 1 = 2^a + b with 0 <= b < 2^a and return (a, b)."""
    ring._validate_natural(n, "n")
    a = (n + 1).bit_length() - 1
    return a, (n + 1) - (1 << a)


@cache
def q_n(n: int) -> IntPolynomial:
    """The monic degree-n product p_1 ... p_a (x-1)^b with (a, b) = split_n(n)."""
    a, b = split_n(n)
    poly = ONE
    for r in range(1, a + 1):
        poly = poly * p_k(r)
    poly = poly * (IntPolynomial((-1, 1)) ** b)
    if poly.degree != n or not poly.is_monic():
        raise ArithmeticError(f"q_{n}: expected monic of degree {n}")
    return poly


# ---------------------------------------------------------------------------
# the r^-_n search and the beta bijection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RMinusRecord:
    """Outcome of the r^-_n search: the polynomial and the chosen bits a_l."""

    n: int
    polynomial: IntPolynomial
    chosen_bits: dict[int, int]


_r_minus_table: dict[int, RMinusRecord] = {}

# Unit family windows (one per monomial x^j of A, one per rho slot) and the
# rows read off them, by tagged key: every lattice test, kernel and rho[t] is
# an integer combination of these.  Values are tuples, so callers share them;
# two threads filling one key store equal values.
_unit_cache: dict[tuple, object] = {}


def _cached(key: tuple, build: Callable[[], object]):
    """_unit_cache[key], built on the first request."""
    try:
        return _unit_cache[key]
    except KeyError:
        value = _unit_cache[key] = build()
        return value


def reset_polynomial_tables() -> None:
    """Drop the cached r^-_n search results, the r^+_n derived from them and
    the unit family windows (used by tests for isolation)."""
    _r_minus_table.clear()
    r_plus.cache_clear()
    _unit_cache.clear()


def _search_winners(base_vec, term_vecs) -> list[int]:
    """Ascending bit masks v for which base_vec plus the selected term_vecs
    lands in 4 Z[chi]/I<K>, family vectors of one level and class step,
    each at any positive scale.

    The test is linear on the residue rows mod M (`ring._residue_images`).
    When every row is 0 mod M/2 it is the affine system
    sum_l v_l row_l / (M/2) = base / (M/2) over GF(2), solved by
    elimination (`_solve_winners`): the winners are one solution plus the
    span of the null space, and a single winner means full column rank.
    Every r^- search through n = 64 has such rows, the rung's own at
    (k, m) = (1, 1) and the three of `_confirm_r_minus` alike (both go
    through `_rung_winners`); a row that is not 0 mod M/2 raises
    ArithmeticError, as nothing else solves the test.
    """
    rows, modulus = ring._residue_images([base_vec, *term_vecs])
    bits = {0, modulus // 2}
    if not all(bits.issuperset(row) for row in rows):
        raise ArithmeticError(
            f"a residue row is not 0 mod {modulus // 2}, so the search is"
            " not a system over GF(2)"
        )
    # column i of a row is bit 8i of its mask
    masks = [int.from_bytes(bytes(map(bool, row)), "little") for row in rows]
    return _solve_winners(masks[0], masks[1:])


def _solve_winners(base: int, terms: Sequence[int]) -> list[int]:
    """Ascending bit masks v with the xor of terms[l] over the set bits l of
    v equal to base, by Gaussian elimination on bitmask ints: each term is
    reduced against the pivots (keyed by their highest bit) and becomes a
    pivot or, reduced to zero, a null vector of the masks it combined.  It
    stays apart from `_pivot`: over Z/2 a row is one int and a step one xor,
    and the cold r^- ladder ran slower through `_residue_kernel`."""
    pivots: dict[int, tuple[int, int]] = {}
    null = []
    for l, vec in enumerate(terms):
        combo = 1 << l
        while vec:
            top = vec.bit_length() - 1
            if top not in pivots:
                pivots[top] = vec, combo
                break
            pivot, used = pivots[top]
            vec ^= pivot
            combo ^= used
        else:
            null.append(combo)
    combo = 0
    while base:
        top = base.bit_length() - 1
        if top not in pivots:
            return []
        pivot, used = pivots[top]
        base ^= pivot
        combo ^= used
    winners = [combo]
    for v in null:
        winners += [w ^ v for w in winners]
    return sorted(winners)


def _rung_winners(n: int, k: int, m: int) -> list[int]:
    """The winning masks (`_search_winners`) of the rung-n system at (k, m):
    q_n and the scaled r^-_l (l < floor(n/2)), each evaluated directly as
    8 f'_k f^m p(f^2) at level 2n + 2."""
    K = 2 * n + 2
    vecs = [ring._eval_f2_vec(p.coeffs, K, k, "odd", m)
            for p in (q_n(n), *_scaled_corrections(n))]
    return _search_winners(vecs[0], vecs[1:])


def _scaled_corrections(n: int) -> list[IntPolynomial]:
    """2^(2(n-l)-1) r^-_l for l < floor(n/2), the terms a rung-n bit adds."""
    return [r_minus(l).polynomial * (1 << (2 * (n - l) - 1))
            for l in range(n // 2)]


def r_minus(n: int) -> RMinusRecord:
    """Search for the unique correction of q_n with the level-(2n+2) property.

    The candidates are q_n + sum over l < floor(n/2) of a_l 2^(2(n-l)-1) r^-_l
    with bits a_l in {0, 1}.  Exactly one choice makes 8 f'_k f^m r(f^2) land
    in 4 Z[chi]/I<2n+2>.  The condition is linear in the bits: on the
    residue rows (the windows' stored Newton differences mod M) it is an
    affine system over GF(2) when every row is 0 mod M/2, and uniqueness
    is full column rank (`_search_winners`).  Every rung through n = 64
    has such rows; a rung that did not would raise ArithmeticError, since
    no other search is left.  One system is solved, at (k, m) = (1, 1), and
    its winner must be unique.  The paper's claim that the winner is the
    same for every (k, m) in {1, 3} x {1, 2} is checked apart, by
    `_confirm_r_minus`, which evaluates every vector directly.
    """
    ring._validate_natural(n, "n")
    if n in _r_minus_table:
        return _r_minus_table[n]
    winners = _rung_winners(n, 1, 1)
    if len(winners) != 1:
        raise ArithmeticError(
            f"r^-_{n}: expected exactly one winning correction,"
            f" found {len(winners)}"
        )
    v = winners[0]
    scaled = _scaled_corrections(n)
    bits = {l: (v >> l) & 1 for l in range(len(scaled))}
    poly = q_n(n)
    for l, term in enumerate(scaled):
        if bits[l]:
            poly = poly + term
    if poly.degree != n or not poly.is_monic():
        raise ArithmeticError(f"r^-_{n}: expected monic of degree {n}")
    record = RMinusRecord(n, poly, bits)
    _r_minus_table[n] = record
    return record


def _confirm_r_minus(n: int) -> None:
    """ArithmeticError unless the rung-n system has r_minus(n)'s winner, and
    only it, at (k, m) = (1, 2), (3, 1) and (3, 2) too: the paper's claim
    that r^-_n does not depend on (k, m), by direct evaluation."""
    bits = r_minus(n).chosen_bits
    mask = sum(bit << l for l, bit in bits.items())
    for k, m in ((1, 2), (3, 1), (3, 2)):
        winners = _rung_winners(n, k, m)
        if winners != [mask]:
            raise ArithmeticError(
                f"r^-_{n}: winning correction depends on (k, m), which"
                f" contradicts uniqueness: (k, m) = ({k}, {m}) has winners"
                f" {winners}, not [{mask}]"
            )


def beta(q: IntPolynomial) -> IntPolynomial:
    """The degree-preserving map q |-> (x q(x) - q(1)) / (x - 1)."""
    if q.is_zero():
        return q
    num = list((0,) + q.coeffs)
    num[0] -= q(1)
    # synthetic division by x - 1; the remainder vanishes identically
    out = [0] * (len(num) - 1)
    carry = 0
    for i in range(len(num) - 1, 0, -1):
        carry += num[i]
        out[i - 1] = carry
    if carry + num[0] != 0:
        raise ArithmeticError("beta: division by x - 1 left a remainder")
    return IntPolynomial(tuple(out))


def beta_inv(q: IntPolynomial) -> IntPolynomial:
    """Inverse of beta: q |-> ((x - 1) q(x) + q(0)) / x."""
    if q.is_zero():
        return q
    num = (IntPolynomial((-1, 1)) * q) + IntPolynomial((q.coefficient(0),))
    if num.coefficient(0) != 0:
        raise ArithmeticError("beta_inv: numerator is not divisible by x")
    return IntPolynomial(num.coeffs[1:])


@cache
def r_plus(n: int) -> IntPolynomial:
    """The companion family r^+_n = beta(r^-_n)."""
    return beta(r_minus(n).polynomial)


# ---------------------------------------------------------------------------
# the lattices A and B
# ---------------------------------------------------------------------------

def _validate_d(d: int, minimum: int = 3) -> int:
    """c = (d - 1) // 2 for a dimension d >= minimum."""
    if not isinstance(d, int) or isinstance(d, bool) or d < minimum:
        raise ValueError(
            f"d must be an integer >= {minimum}, got {ring._shown(d)}")
    return (d - 1) // 2


def _unit_windows(key: tuple, count: int, unit: Callable[[int], object]):
    """[unit(0), ..., unit(count - 1)], each built once under (*key, j)."""
    return [_cached((*key, j), partial(unit, j)) for j in range(count)]


def _unit_rows(key: tuple, count: int, unit: Callable[[int], object]):
    """(rows, M): the residue images (`ring._residue_images`) of the unit
    windows (`_unit_windows`) as tuples, built once under ("rows", *key,
    count); the lattice and kernel oracles read their rows here."""
    def build():
        rows, modulus = ring._residue_images(_unit_windows(key, count, unit))
        return tuple(map(tuple, rows)), modulus
    return _cached(("rows", *key, count), build)


def _monomial_rows(K: int, k: int, d: int, m: int):
    """(rows, M) of the family vectors of x^0, ..., x^(c-1) for the
    degree-d lattice (`_unit_rows`)."""
    mode = "odd" if d % 2 else "even"
    return _unit_rows(("x^j", K, k, mode, m), (d - 1) // 2, lambda j:
                      ring._eval_f2_vec((0,) * j + (1,), K, k, mode, m))


def membership_A(q, K: int, k: int, d: int, m: int | None = None) -> bool:
    """Exact membership of q in the lattice A at level K.

    Odd d tests 8 f'_k f^m q(f^2), even d tests 8 f'_k (f^2-1) q(f^2); the
    test is membership in 4 Z[chi]/I<K>.  The degree of q must be < c.  The
    map is Z-linear, so the test is sum_j q_j rows[j] = 0 mod M on the
    monomial residue rows (`_monomial_rows`).
    """
    c = _validate_d(d)
    coeffs = ring._int_coeffs(q)
    if len(coeffs) > c:
        raise ValueError(
            f"degree overflow: deg q = {len(coeffs) - 1} but the degree-{d}"
            f" lattice holds polynomials of degree <= {c - 1}"
        )
    m = ring._validate_m("odd" if d % 2 else "even", m)
    ring._validate_level(K)
    ring._validate_odd(k)
    rows, modulus = _monomial_rows(K, k, d, m)
    return all(sum(map(mul, coeffs, col)) % modulus == 0
               for col in zip(*rows))


@dataclass(frozen=True)
class LatticeDescriptor:
    """A finite-index sublattice of (Z_{2^K})^c in echelon form.

    basis[i] is an integer polynomial whose leading coefficient is the power
    2^scaling_exponents[i]; degrees strictly increase through 0, ..., c-1.
    index_exponent is log2 of the index in the ambient group.
    """

    ambient_rank: int
    basis: tuple[IntPolynomial, ...]
    scaling_exponents: tuple[int, ...]
    index_exponent: int

    def __post_init__(self) -> None:
        degrees = tuple(p.degree for p in self.basis)
        if degrees != tuple(range(self.ambient_rank)):
            raise ValueError(
                f"basis degrees must be exactly 0..{self.ambient_rank - 1},"
                f" got {degrees}"
            )
        for p, e in zip(self.basis, self.scaling_exponents):
            if p.coeffs[-1] != 1 << e:
                raise ValueError(
                    f"leading coefficient of {p} is not 2^{e}"
                )


def b_basis(K: int, d: int, budget: int | None = None) -> LatticeDescriptor:
    """The claimed basis: 2^max(K-2n-2, 0) r^-_n (odd d) or r^+_n (even d).
    BudgetExceededError is raised, before any rung is searched, when its c
    rungs exceed the budget."""
    ring._validate_level(K)
    c = _validate_d(d, 5)
    _check_count(c, budget, "the claimed basis", "rungs")
    use_plus = d % 2 == 0
    exps = tuple(max(K - 2 * n - 2, 0) for n in range(c))
    polys = tuple(
        (r_plus(n) if use_plus else r_minus(n).polynomial) * (1 << e)
        for n, e in enumerate(exps)
    )
    return LatticeDescriptor(c, polys, exps, sum(exps))


# --- kernels and Hermite forms over Z_{2^K} -------------------------------

def _v2(x: int) -> int:
    return (x & -x).bit_length() - 1


def _reduce(pivots: dict[int, Sequence[int]], vec: Sequence[int],
            K: int) -> tuple[list[int], dict[int, int]]:
    """(remainder, multipliers): vec reduced over Z_{2^K} against the rows
    of pivots from the highest pivot position down.

    pivots maps a position p to a row whose entry at p is 2^e and which is
    zero above p; vec is padded with zeros to the longest row.  Row p is
    taken off multipliers[p] = v[p] >> e times, which leaves the entry at p
    in [0, 2^e).  A zero remainder writes vec as sum_p multipliers[p] row_p.
    """
    mod = 1 << K
    v = [x % mod for x in vec]
    v += [0] * (max(map(len, pivots.values()), default=0) - len(v))
    multipliers = {}
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        q = v[p] >> _v2(row[p])
        if q:
            multipliers[p] = q
            v[:len(row)] = [(x - q * y) % mod for x, y in zip(v, row)]
    return v, multipliers


def _pivot(rows: list[list[int]], j: int, mu: int) -> tuple[int, list[int]]:
    """(v, pivot): the 2-adic elimination step over Z/2^mu on column j (not
    all zero).  The row of least v_2 = v there is popped and scaled to 2^v
    at j, and it clears column j in the other rows.  2^(mu - v) times it
    goes back among them when that is nonzero, i.e. when an entry of it has
    v_2 < v (never in the Smith form), so they span the combinations that
    vanish on column j (Howell, 1986).  Entries stay in [0, 2^mu)."""
    mod = 1 << mu
    low, i = min((row[j] & -row[j], i) for i, row in enumerate(rows) if row[j])
    v = low.bit_length() - 1
    pivot = rows.pop(i)
    if pivot[j] != low:
        inv = pow(pivot[j] >> v, -1, mod)
        pivot = [x * inv % mod for x in pivot]
    for row in rows:
        if row[j]:
            q = row[j] >> v
            row[:] = [(x - q * y) % mod for x, y in zip(row, pivot)]
    if gcd(*pivot) & (low - 1):
        rows.append([(x << (mu - v)) % mod for x in pivot])
    return v, pivot


def _eliminate(rows: list[list[int]], cols: Sequence[int],
               mu: int) -> dict[int, list[int]]:
    """Row-reduce rows (entries in [0, 2^mu)) over Z/2^mu column by column
    (`_pivot`); the rows left span the combinations vanishing on all of
    cols.  Returns the pivot rows by column."""
    pivots: dict[int, list[int]] = {}
    for j in cols:
        for row in rows:
            if row[j]:
                pivots[j] = _pivot(rows, j, mu)[1]
                break
    return pivots


def _hermite_form(gens: Sequence[Sequence[int]], K: int) -> dict[int, list[int]]:
    """Hermite form over Z_{2^K} of the span of gens, by pivot position (the
    highest nonzero index): the pivot is 2^e, the entry at a lower pivot
    position p lies in [0, 2^e_p).  It depends only on the span, whose order
    is the product of 2^(K - e)."""
    mod = 1 << K
    rows = [[x % mod for x in g] for g in gens]
    width = len(rows[0]) if rows else 0
    pivots = _eliminate(rows, range(width - 1, -1, -1), K)
    form: dict[int, list[int]] = {}
    for lead in sorted(pivots):
        form[lead] = _reduce(form, pivots[lead], K)[0]
    return form


def _residue_kernel(mats: Sequence[Sequence[int]], modulus: int,
                    K: int) -> dict[int, list[int]]:
    """Hermite form of the kernel of t |-> sum_j t_j mats[j] mod 2^mu on
    (Z_{2^K})^c: eliminating the rows [mats[j] | e_j] on the mats columns
    leaves rows whose e parts generate it.  Both blocks live in Z/2^M,
    M = max(mu, K), the first one scaled by 2^(M - mu)."""
    mu = modulus.bit_length() - 1
    for j, row in enumerate(mats):
        if modulus != 1 << mu or any((v << K) % modulus for v in row):
            raise ArithmeticError(
                f"2^{K} e_{j} is not 0 mod {modulus}; the ambient group"
                " is not (Z_2^K)^c here"
            )
    top = max(mu, K)
    c, width = len(mats), len(mats[0])
    rows = [[(x % modulus) << (top - mu) for x in mats[j]]
            + [int(i == j) for i in range(c)] for j in range(c)]
    _eliminate(rows, range(width), top)
    return _hermite_form([row[width:] for row in rows], K)


def _residue_lattice(mats: Sequence[Sequence[int]], modulus: int,
                     K: int) -> tuple[dict[int, list[int]], list[int]]:
    """(hermite, image_exps): the kernel of t |-> sum_j t_j mats[j] mod 2^mu
    on (Z_{2^K})^c in Hermite form (`_residue_kernel`) and the ascending
    exponents of the image's cyclic factors (`_smith_normal_form`).  The
    two eliminations certify each other: ArithmeticError unless the
    kernel's index is the image's order."""
    hermite = _residue_kernel(mats, modulus, K)
    image_exps = _smith_normal_form(mats, modulus.bit_length() - 1)
    index = (sum(_v2(row[lead]) for lead, row in hermite.items())
             + K * (len(mats) - len(hermite)))
    if index != sum(image_exps):
        raise ArithmeticError(
            f"kernel index 2^{index} is not the residue image order"
            f" 2^{sum(image_exps)}")
    return hermite, image_exps


def brute_force_A(K: int, k: int, d: int,
                  budget: int | None = None) -> LatticeDescriptor:
    """The lattice A from its definition, in Hermite form.

    A is the kernel of the linearized membership test (one residue image per
    monomial x^j), read off a certified elimination (`_residue_lattice`).
    Nothing is enumerated, but BudgetExceededError is raised when (2^K)^c
    exceeds the budget.
    """
    c = _validate_d(d)
    ring._validate_level(K)
    ring._validate_odd(k)
    _check_budget(K, c, budget, "A")
    rows, image_exps = _residue_lattice(*_monomial_rows(K, k, d, 1), K)
    exps = tuple(_v2(row[lead]) for lead, row in rows.items())
    basis = tuple(IntPolynomial(tuple(row)) for row in rows.values())
    return LatticeDescriptor(c, basis, exps, sum(image_exps))


@dataclass(frozen=True)
class LatticeComparisonReport:
    """Outcome of checking the claimed basis against the lattice oracle.

    Each evidence row pairs a basis polynomial, the object itself from
    `claimed.basis` or `oracle.basis` (`str` gives its text), with its
    verdict.
    """

    K: int
    k: int
    d: int
    claimed: LatticeDescriptor
    oracle: LatticeDescriptor
    basis_membership: tuple[tuple[IntPolynomial, bool], ...]
    basis_in_oracle: tuple[tuple[IntPolynomial, bool], ...]
    oracle_in_claimed: tuple[tuple[IntPolynomial, bool], ...]
    index_equal: bool
    exponents_equal: bool
    passed: bool


def verify_A_equals_B(K: int, k: int, d: int,
                      budget: int | None = None) -> LatticeComparisonReport:
    """Compare the claimed basis lattice with the oracle (brute_force_A).

    Checks, with separate evidence for each direction: every claimed basis
    element passes the exact membership test and reduces to zero against the
    oracle basis; every oracle basis row reduces to zero against the claimed
    basis (both are triangular, so each is its own echelon); and the two
    index exponents agree.  The membership evidence is read off the same
    monomial residue rows the oracle eliminates (`membership_A`), so the
    two are not independent here; the tests compare `membership_A` with
    the direct evaluation of each polynomial, which stays their oracle.
    The oracle comes first, so the budget is checked before any r^- rung
    is searched.
    """
    oracle = brute_force_A(K, k, d, budget)
    claimed = b_basis(K, d)
    membership = tuple((p, membership_A(p, K, k, d)) for p in claimed.basis)

    def reduces(basis, others):
        rows = dict(enumerate(p.coeffs for p in basis))
        return tuple((p, not any(_reduce(rows, p.coeffs, K)[0]))
                     for p in others)

    in_oracle = reduces(oracle.basis, claimed.basis)
    in_claimed = reduces(claimed.basis, oracle.basis)
    index_equal = claimed.index_exponent == oracle.index_exponent
    exponents_equal = claimed.scaling_exponents == oracle.scaling_exponents
    passed = (
        index_equal
        and exponents_equal
        and all(ok for _, ok in membership)
        and all(ok for _, ok in in_oracle)
        and all(ok for _, ok in in_claimed)
    )
    return LatticeComparisonReport(
        K, k, d, claimed, oracle, membership, in_oracle, in_claimed,
        index_equal, exponents_equal, passed,
    )


# ---------------------------------------------------------------------------
# elementary divisors over Z/2^mu
# ---------------------------------------------------------------------------

def _smith_normal_form(matrix: Sequence[Sequence[int]], mu: int) -> list[int]:
    """Ascending exponents e > 0 of the cyclic factors Z/2^e of the subgroup
    that the rows generate in (Z/2^mu)^cols.

    2-adic elimination (Storjohann & Mulders, ESA 1998): an entry of least
    v_2 divides everything in its row and column, so the step of `_pivot`
    on its column puts no row back and splits off one cyclic factor
    Z/2^(mu - v).  Entries stay below 2^mu.
    """
    mod = 1 << mu
    rows = [[x % mod for x in row] for row in matrix]
    exps = []
    while True:
        entries = [(x & -x, j) for row in rows for j, x in enumerate(row) if x]
        if not entries:
            return sorted(exps)
        exps.append(mu - _pivot(rows, min(entries)[1], mu)[0])


# ---------------------------------------------------------------------------
# the span-shape cross-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeRemarkReport:
    """Evidence that the level-(2n+3) property set is the span of the scaled
    r^-_0, ..., r^-_n.

    generators_in_set records the exact membership of each scaled generator;
    the index exponents compare the span's index in (Z_{2^K})^(n+1) against
    the triangular count (n+1)^2.  claim_holds is the conjunction.
    """

    n: int
    k: int
    generators_in_set: tuple[bool, ...]
    observed_index_exponent: int
    expected_index_exponent: int
    claim_holds: bool


def shape_remark_report(n: int, k: int = 1) -> ShapeRemarkReport:
    """Check that {q : deg q <= n, 8 f'_k f q(f^2) in 4Z at level 2n+3} equals
    the span of 2^(2(n-l)+1) r^-_l for l = 0..n.

    Containment of the span follows from membership of the generators; the
    reverse containment is certified by comparing index exponents, where the
    property set's index is computed exactly as the order of the image of the
    monomial residue map (full enumeration would be hopeless at these levels).
    """
    ring._validate_natural(n, "n")
    K = 2 * n + 3
    d = 2 * n + 3  # lattice of degree <= n polynomials with the odd test
    gens = [
        r_minus(l).polynomial * (1 << (2 * (n - l) + 1)) for l in range(n + 1)
    ]
    gen_ok = tuple(membership_A(g, K, k, d) for g in gens)
    mats, modulus = _monomial_rows(K, k, d, 1)
    if modulus & (modulus - 1):
        raise ArithmeticError("residue modulus is not a power of two")
    mu = modulus.bit_length() - 1
    # the index of the property set equals the order of the image of
    # (Z_2^mu)^(n+1) under t |-> sum t_j mats[j]
    observed = sum(_smith_normal_form(mats, mu))
    expected = (n + 1) ** 2
    return ShapeRemarkReport(
        n, k, gen_ok, observed, expected,
        all(gen_ok) and observed == expected,
    )
