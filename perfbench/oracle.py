"""Exact reference arithmetic the checks use instead of calling lensring.

Level l of Q[chi]/I<K> is the cyclotomic field Q[x]/(1 + x^M), M = 2^l,
where 2 is totally ramified, so the level valuation satisfies

    2^l * w_l(g) = v_2(Norm(pr_l g)).

The norm is taken down the tower: p(x) p(-x) = E(y)^2 - y O(y)^2 with
y = x^2 for p = E(x^2) + x O(x^2), halving M at each step.  Nothing here
imports lensring, so a check never shares code with what it checks.
"""

from __future__ import annotations

import math
from fractions import Fraction


def v2(x: int) -> int:
    return (x & -x).bit_length() - 1


def split_den(coeffs) -> tuple[list[int], int]:
    """Integer vector z and positive den with coeffs == z / den."""
    den = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def project(z, l: int) -> list:
    """pr_l of the canonical coefficients z onto Q[x]/(1 + x^(2^l))."""
    m = 1 << l
    out = [0] * m
    for j, c in enumerate(z):
        if (j >> l) & 1:
            out[j & (m - 1)] -= c
        else:
            out[j & (m - 1)] += c
    return out


def _negacyclic_square(a: list[int]) -> list[int]:
    h = len(a)
    out = [0] * h
    for i, x in enumerate(a):
        if not x:
            continue
        for j in range(i, h):
            y = a[j]
            if not y:
                continue
            v = x * y if i == j else 2 * x * y
            k = i + j
            if k < h:
                out[k] += v
            else:
                out[k - h] -= v
    return out


def norm_v2(p: list[int]) -> int | None:
    """v_2 of the norm of p in Z[x]/(1 + x^M); None when p is zero."""
    total = 0
    while True:
        g = math.gcd(*p)
        if g == 0:
            return None
        if g != 1:
            total += len(p) * v2(g)
            p = [c // g for c in p]
        if len(p) == 1:
            return total + v2(p[0])
        ee = _negacyclic_square(p[0::2])
        oo = _negacyclic_square(p[1::2])
        h = len(ee)
        p = [ee[0] + oo[h - 1]] + [ee[i] - oo[i - 1] for i in range(1, h)]


def scaled_valuations(coeffs, K: int) -> list[int | None]:
    """[2^l * w_l(g) for l < K] for canonical coefficients; None is infinity."""
    z, den = split_den(coeffs)
    out = []
    for l in range(K):
        nv = norm_v2(project(z, l))
        out.append(None if nv is None else nv - (1 << l) * v2(den))
    return out


def as_scaled(valuation) -> int | None:
    """2^l * (a + b/2^l) for a lensring Valuation; None for infinity."""
    if valuation.a is None:
        return None
    return (valuation.a << valuation.level) + valuation.b


def add_scaled(x: int | None, y: int | None) -> int | None:
    return None if x is None or y is None else x + y


def proves_membership(coeffs, K: int, scaled: list[int | None]) -> bool:
    """The verdict criterion_sufficient must give, derived from the norms:
    every projection lies in 4Z and every w_l >= 2 + K - l - 2^-l."""
    for l in range(K):
        if not in_4z([Fraction(c) for c in project(coeffs, l)]):
            return False
        w = scaled[l]
        if w is not None and w < ((2 + K - l) << l) - 1:
            return False
    return True


def negacyclic_mul(a: list, b: list) -> list:
    """Product in Q[x]/(1 + x^M) for equal-length rational vectors."""
    m = len(a)
    out = [Fraction(0)] * m
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if not y:
                continue
            k = i + j
            if k < m:
                out[k] += x * y
            else:
                out[k - m] -= x * y
    return out


def is_inverse(u_coeffs, v_coeffs, K: int) -> bool:
    """u * v == 1 in Q[chi]/I<K>, checked level by level (the ring is the
    product of its levels)."""
    for l in range(K):
        prod = negacyclic_mul(project(u_coeffs, l), project(v_coeffs, l))
        if prod != [1] + [0] * (len(prod) - 1):
            return False
    return True


def has_zero_level(coeffs, K: int) -> bool:
    return any(not any(project(coeffs, l)) for l in range(K))


def in_4z(coeffs) -> bool:
    return all(c.denominator == 1 and c.numerator % 4 == 0 for c in coeffs)
