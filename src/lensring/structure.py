"""Structure-set descriptors for fake lens spaces with cyclic 2-power group.

A lens-space dimension d >= 3 and a level K >= 1 fix the ambient data: the
group order N = 2^K and the count c = floor((d-1)/2) of interesting normal
invariants.  A normal invariant vector carries c residues t_4, t_8, ...,
t_{4c} modulo 2^K together with c residues t_2, t_6, ..., t_{4c-2} modulo 2.
Only the t_{4i} enter the obstruction

    rho[t] = sum_{i=1}^{e-1} 8 t_{4i} f'_k f^(d-2i-2) (f^2 - 1)
             (+ 8 t_{4e} f'_k f   when d = 2e+1 is odd),

an element of Q[chi]/I<K>; the vector is normally cobordant to the standard
structure exactly when rho[t] lies in 4 Z[chi]/I<K>.  The kernel of t |->
[rho[t] passes] is a subgroup of (Z_{2^K})^c which kernel_oracle reads off
a 2-adic elimination; its elementary divisors come from the Smith form of
the residue image, whose order certifies the kernel's index.

The classification output is a descriptor with a free part of rank N/2 - 1
(odd d) or N/2 (even d) and, for d >= 5, the torsion summands

    r_{4i-2} of order 2              (i = 1..c, copied from t_{4i-2}),
    r_{4i}   of order 2^min(K, 2i)   (i = 1..c).

r_coordinates expresses a kernel member in those coordinates by reducing
it mod 2^K against the scaled best-polynomial basis (polynomials._reduce).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import lcm, prod
from typing import NamedTuple

from . import ring
from .polynomials import (
    IntPolynomial,
    _cached,
    _check_budget,
    _check_count,
    _reduce,
    _residue_lattice,
    _unit_rows,
    _unit_windows,
    _validate_d,
    b_basis,
)
from .ring import RingElement, is_in_4Z

__all__ = [
    "NormalInvariantVector",
    "TorsionSummand",
    "StructureSetDescriptor",
    "KernelSubgroup",
    "rho_bracket",
    "t_to_polynomial",
    "kernel_oracle",
    "t_bar",
    "structure_set",
    "r_coordinates",
    "polynomial_r_coordinates",
]


class TorsionSummand(NamedTuple):
    label: str
    order: int


@dataclass(frozen=True)
class NormalInvariantVector:
    """Residues (t_4, ..., t_{4c}) mod 2^K and (t_2, ..., t_{4c-2}) mod 2."""

    d: int
    K: int
    t4: tuple[int, ...]
    t2: tuple[int, ...]

    def __post_init__(self) -> None:
        c = _validate_d(self.d)
        ring._validate_level(self.K)
        t4 = tuple(self.t4)
        t2 = tuple(self.t2)
        if len(t4) != c or len(t2) != c:
            raise ValueError(
                f"expected {ring._shown(c)} residues in each of t4 and t2"
                f" for d = {ring._shown(self.d)}"
            )
        for name, values, bits in (("t4", t4, self.K), ("t2", t2, 1)):
            for i, v in enumerate(values):
                if (not isinstance(v, int) or isinstance(v, bool) or v < 0
                        or v.bit_length() > bits):
                    raise ValueError(
                        f"{name}[{i}] must be an int in"
                        f" [0, 2^{ring._shown(bits)})")
        object.__setattr__(self, "t4", t4)
        object.__setattr__(self, "t2", t2)


def _rho_slot_vec(d: int, K: int, k: int, slot: int, scale: int = 8):
    """Internal vector of the rho summand attached to t4[slot]."""
    c = (d - 1) // 2
    if d % 2 and slot == c - 1:
        return ring._family_vec(K, k, f_power=1, scale=scale)
    i = slot + 1
    return ring._family_vec(
        K, k, f_power=d - 2 * i - 2, f2_minus_1=True, scale=scale
    )


def _slot_units(d: int, K: int, k: int):
    """(key, count, unit) of the c unit slot windows _rho_slot_vec(d, K, k,
    slot), for `polynomials._unit_windows` and `polynomials._unit_rows`."""
    return ("slot", d, K, k), (d - 1) // 2, partial(_rho_slot_vec, d, K, k)


def _slot_rows(d: int, K: int, k: int):
    """(rows, den): the canonical numerators of the c unit slot windows,
    all N - 1 of them, over one common denominator."""
    def build():
        slots = [ring._element_from_vec(K, v)
                 for v in _unit_windows(*_slot_units(d, K, k))]
        den = lcm(*(e.den for e in slots))
        rows = []
        for e in slots:
            s = den // e.den
            rows.append(tuple(x * s for x in e.nums))
        return tuple(rows), den
    return _cached(("slot rows", d, K, k), build)


def rho_bracket(t: NormalInvariantVector, k: int = 1) -> RingElement:
    """The surgery obstruction element rho[t] in Q[chi]/I<K>.

    Only the t4 residues contribute; t2 is carried along untouched.  The
    map is Z-linear, so rho[t] is sum t4[slot] * (unit slot row) over one
    denominator (`_slot_rows`); the rows are built termwise from the f'_k,
    f, f^2 - 1 building blocks, so no dense polynomial product is formed.
    """
    ring._validate_odd(k)
    rows, den = _slot_rows(t.d, t.K, k)
    nums = [0] * ((1 << t.K) - 1)
    for coeff, row in zip(t.t4, rows):
        if coeff:
            nums = [x + coeff * y for x, y in zip(nums, row)]
    return RingElement._from_ints(t.K, nums, den)


def t_to_polynomial(t: NormalInvariantVector) -> IntPolynomial:
    """The degree < c polynomial q_t with rho[t] = 8 f'_k f q_t(f^2) for odd
    d, and rho[t] = 8 f'_k (f^2 - 1) q_t(f^2) for even d.

    Coefficients use the integer lifts of the t4 residues in [0, 2^K).
    """
    c = (t.d - 1) // 2
    coeffs = [0] * c
    if t.d % 2 == 0:
        for i in range(c):
            coeffs[c - 1 - i] = t.t4[i]
    else:
        coeffs[c - 1] = t.t4[0]
        for i in range(1, c):
            coeffs[c - 1 - i] = t.t4[i] - t.t4[i - 1]
    return IntPolynomial(tuple(coeffs))


@dataclass(frozen=True)
class KernelSubgroup:
    """The kernel of the obstruction map inside (Z_{2^K})^c; generators is
    its Hermite form (polynomials._hermite_form), by ascending pivot, and
    elementary_divisors the orders of its cyclic factors, ascending."""

    ambient_rank: int
    modulus_exponent: int
    order: int
    generators: tuple[tuple[int, ...], ...]
    elementary_divisors: tuple[int, ...]


def kernel_oracle(d: int, K: int, k: int = 1,
                  budget: int | None = None) -> KernelSubgroup:
    """Compute {t4 : rho[t] in 4 Z[chi]/I<K>} and report its structure.

    Works from the definition alone: one linearized residue image per t4
    slot, its kernel and the image's cyclic factors read off two 2-adic
    eliminations that certify each other (`polynomials._residue_lattice`).
    Each image factor Z/2^e leaves a kernel factor Z/2^(K-e).  Nothing is
    enumerated, but BudgetExceededError is raised when (2^K)^c exceeds the
    budget.
    """
    c = _validate_d(d)
    ring._validate_level(K)
    ring._validate_odd(k)
    _check_budget(K, c, budget, "the kernel")
    rows, image_exps = _residue_lattice(
        *_unit_rows(*_slot_units(d, K, k)), K)
    # each of the c - len(image_exps) missing image factors leaves a Z/2^K;
    # factors of order 1 drop out
    exps = ([K - e for e in reversed(image_exps) if e < K]
            + [K] * (c - len(image_exps)))
    orders = tuple(1 << e for e in exps)
    generators = tuple(tuple(row) for row in rows.values())
    return KernelSubgroup(c, K, prod(orders), generators, orders)


# ---------------------------------------------------------------------------
# the classification descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureSetDescriptor:
    """Free rank plus ordered torsion summands (None when d < 5, where the
    torsion description is out of scope)."""

    free_rank: int
    torsion: tuple[TorsionSummand, ...] | None


def t_bar(d: int, K: int,
          budget: int | None = None) -> tuple[TorsionSummand, ...]:
    """The torsion summands for d >= 5: the c order-2 labels r_{4i-2}
    followed by the labels r_{4i} of order 2^min(K, 2i).
    BudgetExceededError is raised, before any is built, when the 2c
    summands exceed the budget."""
    c = _validate_d(d, minimum=5)
    ring._validate_level(K)
    _check_count(2 * c, budget, "the torsion", "summands")
    two_part = [TorsionSummand(f"r_{4 * i - 2}", 2) for i in range(1, c + 1)]
    big_part = [
        TorsionSummand(f"r_{4 * i}", 1 << min(K, 2 * i))
        for i in range(1, c + 1)
    ]
    return tuple(two_part + big_part)


def structure_set(d: int, K: int,
                  budget: int | None = None) -> StructureSetDescriptor:
    """The structure-set descriptor: free rank N/2 - 1 (odd d) or N/2
    (even d), torsion per t_bar for d >= 5, whose 2c summands are checked
    against the budget before anything is built."""
    _validate_d(d)
    ring._validate_level(K)
    torsion = t_bar(d, K, budget) if d >= 5 else None
    n = 1 << K
    free_rank = n // 2 - 1 if d % 2 else n // 2
    return StructureSetDescriptor(free_rank, torsion)


# ---------------------------------------------------------------------------
# coordinates on the kernel
# ---------------------------------------------------------------------------

def polynomial_r_coordinates(q: IntPolynomial, d: int, K: int) -> tuple[int, ...]:
    """Coordinates of q against the scaled best-polynomial basis, mod 2^K.

    Solves q = sum_n a_n 2^max(K-2n-2, 0) r_n mod 2^K by reducing q against
    b_basis(K, d) from the top degree down (`polynomials._reduce`); a_n is
    the multiplier of the degree-n row, in [0, 2^min(K, 2n+2)).  The
    result only depends on q modulo 2^K Z[x], which is what makes
    coordinates of residue vectors well defined.  Raises when q is not in
    the span, naming the highest degree left nonzero.
    """
    c = _validate_d(d, minimum=5)
    ring._validate_level(K)
    if q.degree >= c:
        raise ValueError(
            f"degree overflow: deg q = {q.degree}, needs to be < {c}"
        )
    basis = b_basis(K, d)
    rows = {n: p.coeffs for n, p in enumerate(basis.basis)}
    rem, coords = _reduce(rows, q.coeffs, K)
    if any(rem):
        n = max(j for j, x in enumerate(rem) if x)
        raise ArithmeticError(
            f"coefficient at degree {n} is not divisible by"
            f" 2^{basis.scaling_exponents[n]}; q is outside the lattice"
        )
    return tuple(coords.get(n, 0) for n in range(c))


def r_coordinates(t: NormalInvariantVector, k: int = 1) -> dict[str, int]:
    """Coordinates of a kernel member in the t_bar summands.

    The r_{4i-2} coordinates are the t_{4i-2} residues verbatim; the r_{4i}
    coordinates come from reducing the associated polynomial against the
    scaled basis (`polynomial_r_coordinates`).  Raises ValueError when
    rho[t] is not in 4 Z[chi]/I<K> (the vector is not in the kernel, so it
    has no coordinates).
    """
    c = _validate_d(t.d, minimum=5)
    if not is_in_4Z(rho_bracket(t, k)):
        raise ValueError(
            "rho[t] is not in 4 Z[chi]/I<K>; only kernel members have"
            " r coordinates"
        )
    coords = polynomial_r_coordinates(t_to_polynomial(t), t.d, t.K)
    out: dict[str, int] = {}
    for i in range(1, c + 1):
        out[f"r_{4 * i - 2}"] = t.t2[i - 1]
    for i in range(1, c + 1):
        out[f"r_{4 * i}"] = coords[i - 1]
    return out
