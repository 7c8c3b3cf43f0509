"""Tests for level-wise valuations, normal forms, and the criteria."""

import random
import sys
from fractions import Fraction

import pytest
import sympy

from lensring import (
    CriterionVerdict,
    IntPolynomial,
    LevelProjection,
    Valuation,
    criterion_necessary,
    criterion_necessary_search,
    criterion_sufficient,
    crt_reconstruct,
    element_f,
    element_f_k,
    element_f_prime,
    evaluate_at_f_squared,
    is_in_4Z,
    make_element,
    membership_bound,
    normal_form,
    normal_form_reconstruct,
    project,
    q_n,
    valuation_from_text,
    valuation_to_text,
    w_l,
    x_polynomial,
)


from lensring.polynomials import _v2
from lensring.valuation import (NormalForm, _expand_in_monomials,
                                _family_polynomial_valuation,
                                _one_minus_chi_valuations, _power_valuation,
                                _valuation, _valuations)


def random_element(rng, K, span=9):
    return make_element(K, [rng.randrange(-span, span + 1) for _ in range(1 << K)])


def test_valuation_construction():
    v = Valuation.finite(2, 3, 2)
    assert (v.a, v.b, v.level) == (2, 3, 2)
    assert not v.is_infinite
    assert v.value() == Fraction(11, 4)
    assert Valuation.infinite().is_infinite
    with pytest.raises(ValueError):
        Valuation.finite(0, 4, 2)
    with pytest.raises(ValueError):
        Valuation.finite(0, -1, 2)
    for parts in [(1, None, 2), (1, 0, -1), (True, 0, 1), (0, 0, 1.0)]:
        with pytest.raises(ValueError):
            Valuation(*parts)


def test_infinite_valuation_has_no_value():
    with pytest.raises(ValueError, match="no rational value"):
        Valuation.infinite().value()


def test_unchecked_valuation_equals_checked_one():
    for level in range(5):
        for a in (-2, 0, 3):
            for b in range(1 << level):
                v = Valuation._unchecked(a, b, level)
                w = Valuation(a, b, level)
                assert v == w and hash(v) == hash(w) and repr(v) == repr(w)
                assert not v.is_infinite and v.value() == w.value()
    # what w_l and addition return is the same as the public constructor's
    g = make_element(3, [2, 0, 4, 6, 0, 0, 2])
    v = w_l(g, 2)
    assert v == Valuation(v.a, v.b, v.level)
    s = v + v
    assert s == Valuation(s.a, s.b, s.level)


def test_valuation_addition_carries():
    v = Valuation.finite(0, 3, 2) + Valuation.finite(0, 3, 2)
    assert (v.a, v.b) == (1, 2)
    v = Valuation.finite(1, 0, 3) + Valuation.finite(2, 7, 3)
    assert (v.a, v.b) == (3, 7)
    assert (Valuation.infinite() + Valuation.finite(1, 0, 2)).is_infinite
    with pytest.raises(ValueError):
        Valuation.finite(0, 0, 1) + Valuation.finite(0, 0, 2)


def test_valuation_ordering():
    lo = Valuation.finite(1, 1, 2)
    hi = Valuation.finite(1, 2, 2)
    inf = Valuation.infinite()
    assert lo < hi < inf
    assert min(hi, lo) == lo
    assert lo.at_least(Fraction(5, 4))
    assert not lo.at_least(Fraction(3, 2))
    assert lo.below(Fraction(3, 2))
    assert not lo.below(Fraction(5, 4))
    assert inf.at_least(Fraction(10**9))
    assert not inf.below(Fraction(10**9))


def test_valuation_comparisons_match_fractions():
    rng = random.Random(17)
    vals = [Valuation.infinite()]
    for level in range(7):
        for a in range(-3, 4):
            for b in {0, 1, (1 << level) - 1, rng.randrange(1 << level)}:
                if b < 1 << level:
                    vals.append(Valuation.finite(a, b, level))

    def key(v):
        return (1, 0) if v.is_infinite else (0, v.value())

    for x in vals:
        for y in vals:
            kx, ky = key(x), key(y)
            assert (x < y, x <= y, x > y, x >= y) \
                == (kx < ky, kx <= ky, kx > ky, kx >= ky)
            assert key(min(x, y)) == min(kx, ky)
    assert [key(v) for v in sorted(vals)] == sorted(map(key, vals))
    bounds = {membership_bound(K, l) for K in range(1, 9) for l in range(K)}
    bounds |= {Fraction(rng.randrange(-99, 100), rng.randrange(1, 200))
               for _ in range(40)}
    bounds |= {Fraction(-3), Fraction(0), Fraction(5, 4), Fraction(10**9)}
    for v in vals:
        for bound in bounds:
            if v.is_infinite:
                assert v.at_least(bound) and not v.below(bound)
            else:
                assert v.at_least(bound) == (v.value() >= bound)
                assert v.below(bound) == (v.value() < bound)


def test_valuation_text_round_trip():
    for v in (
        Valuation.finite(0, 3, 2),
        Valuation.finite(-2, 0, 1),
        Valuation.finite(5, 31, 5),
        Valuation.infinite(),
    ):
        assert valuation_from_text(valuation_to_text(v)) == v
    assert valuation_to_text(Valuation.finite(0, 3, 2)) == "0+3/2^2"
    assert valuation_to_text(Valuation.infinite()) == "inf"
    assert valuation_from_text("0+3/2^2\n") == Valuation.finite(0, 3, 2)
    # the parser reads only the writer's spelling, then trailing newlines
    for bad in ("0+4/2^2", "1", "0+3/2", "0-3/2^2", "infty", "01+3/2^2",
                "1+03/2^2", "1+3/2^02", "-0+3/2^2", " 1+3/2^2", "1+3/2^2 ",
                " inf", "inf\t"):
        with pytest.raises(ValueError):
            valuation_from_text(bad)


def test_valuation_text_past_the_int_to_str_limit():
    # a and b past 4300 digits are written in full and read back; below the
    # limit the text is that of str
    v = Valuation(-(10 ** 5000), (1 << 15000) - 1, 15000)
    text = valuation_to_text(v)
    assert valuation_from_text(text) == v
    assert valuation_to_text(Valuation(-7, 3, 2)) == "-7+3/2^2"
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = f"{v.a}+{v.b}/2^15000"
    finally:
        sys.set_int_max_str_digits(old)
    assert text == want


def test_normal_form_known_values():
    K = 3
    # 1 - chi projects to 1 - chi at every level
    g = make_element(K, [1, -1])
    for l in range(1, K):
        nf = normal_form(project(g, l))
        assert (nf.a, nf.b, nf.u) == (0, 1, 1)
        assert nf.v2.is_zero()
    nf = normal_form(project(make_element(K, [6]), 2))
    assert (nf.a, nf.b, nf.u) == (1, 0, 1)
    assert nf.v1 == IntPolynomial((3,))
    # an odd denominator is carried by the unit u
    p = project(Fraction(1, 3) * make_element(K, [2]), 2)
    nf = normal_form(p)
    assert (nf.a, nf.b, nf.u) == (1, 0, 3)
    assert nf.v1 == IntPolynomial((1,))
    assert normal_form_reconstruct(nf, 2) == p
    with pytest.raises(ValueError):
        normal_form(project(make_element(K, []), 1))


def test_normal_form_round_trip_and_oddness():
    rng = random.Random(10)
    elements = [random_element(rng, K) for K in (1, 2, 3, 4) for _ in range(25)]
    # deeper towers, with 2-power denominators
    elements += [
        make_element(K, [Fraction(rng.randrange(-99, 100),
                                  1 << rng.randrange(8))
                         for _ in range(1 << K)])
        for K in (5, 6, 7) for _ in range(4)
    ]
    for g in elements:
        for l in range(g.level):
            p = project(g, l)
            if p.is_zero():
                continue
            nf = normal_form(p)
            assert nf.v1(1) % 2 == 1
            assert nf.u % 2 == 1
            assert 0 <= nf.b < 1 << l
            assert normal_form_reconstruct(nf, l) == p


def _zm_by_synthetic_division(nums, dim):
    """The coefficients of nums in powers of (1 - chi) by repeated
    synthetic division at chi = 1: the oracle for `normal_form`."""
    cur, zm = list(nums), []
    for _ in range(dim):
        zm.append(sum(cur))
        suffix = 0
        nxt = [0] * (len(cur) - 1)
        for i in range(len(cur) - 1, 0, -1):
            suffix += cur[i]
            nxt[i - 1] = -suffix
        cur = nxt
    return zm


def _normal_form_oracle(p):
    zm = _zm_by_synthetic_division(p.nums, 1 << p.level)
    a1 = _v2(p.den)
    a2 = min(_v2(v) for v in zm if v)
    b = next(m for m, v in enumerate(zm) if v and _v2(v) == a2)
    v1 = _expand_in_monomials([v >> a2 for v in zm[b:]])
    v2 = _expand_in_monomials([v >> (a2 + 1) for v in zm[:b]])
    return NormalForm(a2 - a1, b, p.den >> a1, v1, v2), zm


def test_normal_form_matches_synthetic_division():
    rng = random.Random(30)
    dens = (1, 2, 3, 4, 5, 12, 56, 1 << 9)
    for l in range(9):
        dim = 1 << l
        for trial in range(12):
            den = rng.choice(dens)
            if trial == 0:
                # a single nonzero entry
                nums = [0] * dim
                nums[rng.randrange(dim)] = rng.choice((-3, 1)) << rng.randrange(6)
            else:
                # sparse: about half the entries are zero
                nums = [rng.randrange(-99, 100) if rng.random() < 0.5 else 0
                        for _ in range(dim)]
            if not any(nums):
                nums[-1] = 2
            p = LevelProjection(l, [Fraction(v, den) for v in nums])
            want, zm = _normal_form_oracle(p)
            assert _expand_in_monomials(p.nums).coeffs == IntPolynomial(
                tuple(zm)).coeffs
            nf = normal_form(p)
            assert nf == want
            assert normal_form_reconstruct(nf, l) == p


def test_expand_in_monomials_is_an_involution():
    rng = random.Random(31)
    cases = [[], [0], [5], [0, 0, 0], [0] * 8, [1, -1], [0, 0, 3]]
    cases += [[rng.randrange(-50, 51) for _ in range(rng.randrange(1, 40))]
              for _ in range(60)]
    for coeffs in cases:
        once = _expand_in_monomials(coeffs)
        assert _expand_in_monomials(once.coeffs) == IntPolynomial(tuple(coeffs))
    assert _expand_in_monomials([]) == IntPolynomial(())


def test_w_l_worked_examples():
    for K in (1, 2, 3, 4):
        f = element_f(K)
        one = make_element(K, [1])
        for l in range(K):
            for a in range(5):
                w = w_l(make_element(K, [1 << a]), l)
                assert (w.a, w.b) == (a, 0)
            if l == 0:
                assert w_l(f, 0).is_infinite
            else:
                assert w_l(f, l).value() == 0
            for s in (1, -1):
                assert w_l(f + make_element(K, [s]), l).value() \
                    == 1 - Fraction(1, 1 << l)
            assert w_l(f * f - one, l).value() == 2 - Fraction(2, 1 << l)
            w = w_l(f * f + one, l)
            if l == 0:
                assert w.value() == 0
            elif l == 1:
                assert w.is_infinite
            else:
                assert w.value() == 1
            for k in (1, 3, 5, 7):
                assert w_l(element_f_prime(K, k), l).value() == 0


def test_w_l_is_additive_on_products():
    rng = random.Random(11)
    for K in (2, 3, 4):
        for _ in range(40):
            g1, g2 = random_element(rng, K), random_element(rng, K)
            g12 = g1 * g2
            for l in range(K):
                assert w_l(g12, l) == w_l(g1, l) + w_l(g2, l)


def test_w_l_sum_rule():
    rng = random.Random(12)
    for K in (2, 3, 4):
        for _ in range(40):
            g1, g2 = random_element(rng, K), random_element(rng, K)
            gs = g1 + g2
            for l in range(K):
                w1, w2 = w_l(g1, l), w_l(g2, l)
                ws = w_l(gs, l)
                if w1 == w2:
                    assert ws.is_infinite or w1.is_infinite \
                        or ws.value() >= w1.value()
                else:
                    assert ws == min(w1, w2)


def test_power_valuation_scales_by_the_exponent():
    rng = random.Random(13)
    for K in (2, 3, 4):
        for _ in range(20):
            g = random_element(rng, K)
            for l in range(K):
                for e in range(4):
                    assert _power_valuation(w_l(g, l), e, l) == w_l(g ** e, l)
    zero = make_element(3, [0])
    assert _power_valuation(w_l(zero, 2), 0, 2) == Valuation(0, 0, 2)
    assert _power_valuation(w_l(zero, 2), 5, 2).is_infinite


def random_family_polynomial(rng, degree):
    """Coefficients of P = sum_j d_j (1 - x)^j with d_j of spread 2-adic
    valuations, so the least term falls at any j; or plain random ones."""
    if rng.random() < 0.3:
        return [rng.randrange(-9, 10) for _ in range(degree + 1)]
    d = [rng.choice((0, 1, -3, 5)) << rng.randrange(5)
         for _ in range(degree + 1)]
    return list(_expand_in_monomials(d).coeffs)


def test_family_polynomial_valuation_matches_the_dense_route():
    # w_l(P(a)) for a = f, f_3, f_5 and deg P < 2^l, read off P(1 + y),
    # equals the valuation of P(a) built by Horner in the level-l field
    rng = random.Random(34)
    cases = past_zero = 0
    for l in range(11):
        atoms = [project(element_f(l + 1), l)] + [
            project(element_f_k(l + 1, k), l) for k in (3, 5)]
        for _ in range(30):
            degree = rng.randrange(min(1 << l, 16))
            if l <= 4 and rng.random() < 0.3:
                degree = (1 << l) - 1
            coeffs = random_family_polynomial(rng, degree)
            got = _family_polynomial_valuation(coeffs, l)
            past_zero += not got.is_infinite and got.b > 0
            for atom in atoms:
                value = LevelProjection._from_ints(l, [0] * (1 << l))
                for c in reversed(coeffs):
                    value = value * atom + LevelProjection._from_ints(
                        l, [c] + [0] * ((1 << l) - 1))
                assert got == _valuation(value.nums, value.den, l), \
                    (coeffs, l)
                cases += 1
    assert cases == 11 * 30 * 3 and past_zero > 100


def test_w_l_validates_level_index():
    g = make_element(3, [1])
    with pytest.raises(ValueError):
        w_l(g, 3)
    with pytest.raises(ValueError):
        w_l(g, -1)
    for bad in (True, False, 1.0):
        with pytest.raises(ValueError):
            w_l(g, bad)


def tower_inputs(rng, K, dens):
    """Elements with random denominators, some with zero projections."""
    out = []
    for with_zero_levels in (False, True):
        g = make_element(K, [Fraction(rng.randrange(-99, 100), rng.choice(dens))
                             for _ in range(1 << K)])
        if with_zero_levels:
            # 1 + chi^(2^l) kills the level-l projection
            for l in rng.sample(range(K), rng.randrange(1, K + 1)):
                g = g * make_element(K, [1] + [0] * ((1 << l) - 1) + [1])
        out.append(g)
    return out


def test_w_l_matches_normal_form():
    rng = random.Random(14)
    odd = (1, 3, 5, 7, 9, 15, 45)
    two_powers = tuple(1 << e for e in range(12))
    for K in range(1, 11):
        for dens in ((1,), odd, two_powers, odd + two_powers):
            for g in tower_inputs(rng, K, dens):
                every = _valuations(g)
                assert len(every) == K
                for l in range(K):
                    w, p = w_l(g, l), project(g, l)
                    assert every[l] == w
                    if p.is_zero():
                        assert w.is_infinite
                    else:
                        nf = normal_form(p)
                        assert (w.a, w.b, w.level) == (nf.a, nf.b, l)


def superset_sum_b(parities, level):
    """b from the superset-sum transform: mod 2, chi^j is the sum of the
    (1 + chi)^m whose exponent bits are a subset of those of j (Lucas), so
    the (1 - chi)^m coefficient is the xor of the parities at every
    superset j of m, one pass per bit; b is the lowest odd one."""
    x = list(parities)
    for i in range(level):
        h = 1 << i
        for j in range(len(x)):
            if not j & h:
                x[j] ^= x[j | h]
    return x.index(1)


def test_valuation_halving_matches_the_superset_sum_transform():
    # every nonzero parity vector at l <= 4
    for level in range(5):
        n = 1 << level
        for bits in range(1, 1 << n):
            parities = [bits >> j & 1 for j in range(n)]
            assert _valuation(parities, 1, level) \
                == Valuation(0, superset_sum_b(parities, level), level)
    # all-ones, single-bit, (1 + chi)^m and random vectors at l <= 12, as
    # odd multiples of 2^low over odd multiples of powers of two
    rng = random.Random(22)
    for level in range(13):
        n = 1 << level
        vectors = [[1] * n]
        vectors += [[int(j == e) for j in range(n)]
                    for e in {0, n - 1, n >> 1, rng.randrange(n)}]
        vectors += [[int(j & m == j) for j in range(n)]
                    for m in {0, n - 1, n >> 1, rng.randrange(n)}]
        vectors += [[rng.randrange(2) for _ in range(n)] for _ in range(4)]
        # sums of (1 + chi)^m over m >= m0 have b >= m0
        for m0 in (n >> 1, n - (n >> 3) - 1):
            parities = [0] * n
            for m in rng.sample(range(m0, n), min(3, n - m0)):
                parities = [p ^ (j & m == j) for j, p in enumerate(parities)]
            vectors.append(parities)
        for parities in vectors:
            if not any(parities):
                continue
            low, odd = rng.randrange(4), rng.choice((1, 3, 5, 15))
            den = rng.choice((1, 3, 9)) << rng.randrange(5)
            nums = [odd * ((2 * rng.randrange(-50, 50) + p) << low)
                    for p in parities]
            assert _valuation(nums, den, level) == Valuation(
                low - _v2(den), superset_sum_b(parities, level), level)


def test_a_level_18_read_keeps_nothing_allocated():
    # b is read by halving the parity int, with no per-level masks cached
    import tracemalloc
    nums = [4] * (1 << 18)
    tracemalloc.start()
    try:
        w = _valuation(nums, 1, 18)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # C(2^18 - 1, j) is odd for every j, so 1 + chi + ... + chi^(2^18 - 1)
    # is (1 - chi)^(2^18 - 1) mod 2, and w = 2 + (2^18 - 1) / 2^18
    assert w == Valuation(2, (1 << 18) - 1, 18)
    assert held < 1 << 20


def test_w_l_matches_resultant_valuation():
    # for integral g, 2^l w_l(g) = v_2(Res(pr_l g, 1 + x^(2^l)))
    x = sympy.Symbol("x")
    rng = random.Random(15)
    for K in range(1, 6):
        for g in tower_inputs(rng, K, (1,)):
            for l in range(K):
                w = w_l(g, l)
                p = sum(int(c) * x ** j for j, c in enumerate(project(g, l).coeffs))
                res = int(sympy.resultant(p, 1 + x ** (1 << l), x))
                if res == 0:
                    assert w.is_infinite
                else:
                    assert (w.a << l) + w.b == sympy.multiplicity(2, res)


def test_membership_bound_values():
    assert membership_bound(1, 0) == 2
    assert membership_bound(3, 0) == 4
    assert membership_bound(3, 2) == Fraction(11, 4)


def test_criterion_sufficient_known_cases():
    # a big power of two clears the bound at every level
    K = 3
    g = make_element(K, [1 << (K + 2)])
    assert criterion_sufficient(g) == CriterionVerdict.PROVES_MEMBERSHIP
    assert is_in_4Z(g)
    # 4 itself is a member but sits below the bound at low levels
    g = make_element(K, [4])
    assert criterion_sufficient(g) == CriterionVerdict.INCONCLUSIVE
    # an element failing the projection hypothesis is never judged
    assert criterion_sufficient(make_element(K, [1])) \
        == CriterionVerdict.INCONCLUSIVE


def test_criterion_necessary_on_a_ladder_element():
    # 8 f'_k f sits one level too high at K = 3 and a witness certifies it
    g = evaluate_at_f_squared([1], 3, 1)
    assert not is_in_4Z(g)
    verdict, j, l_star = criterion_necessary_search(g)
    assert verdict == CriterionVerdict.PROVES_NON_MEMBERSHIP
    h = make_element(3, [1, -1]) ** j
    assert criterion_necessary(g, h, l_star) \
        == CriterionVerdict.PROVES_NON_MEMBERSHIP


def test_criterion_necessary_validates_inputs():
    g = make_element(3, [4])
    h = make_element(3, [1])
    with pytest.raises(ValueError):
        criterion_necessary(g, make_element(2, [1]), 0)
    with pytest.raises(ValueError):
        criterion_necessary(g, Fraction(1, 2) * h, 0)
    with pytest.raises(ValueError):
        criterion_necessary(g, h, 3)


def test_criterion_necessary_search_validates_max_power():
    g = evaluate_at_f_squared([1], 3, 1)
    for bad in (True, False, -1, 2.0, "3"):
        with pytest.raises(ValueError):
            criterion_necessary_search(g, bad)
    assert criterion_necessary_search(g, 0) \
        == (CriterionVerdict.PROVES_NON_MEMBERSHIP, 0, 1)


def test_witness_valuations_match_the_ring_powers():
    # w_l((1 - chi)^j) = j / 2^l against the dense powers
    for K in range(1, 8):
        one_minus_chi = make_element(K, [1, -1])
        h = make_element(K, [1])
        for j in range((1 << K) + 4):
            assert _one_minus_chi_valuations(K, j) == tuple(_valuations(h))
            h = h * one_minus_chi


def ring_witness_scan(g):
    """The search's verdict read off ring-built witnesses (1 - chi)^j,
    j <= 2^K, and the deficiency rule written out."""
    K = g.level
    if oracle_parts(g) is not None:
        wg = _valuations(g)
        h, one_minus_chi = make_element(K, [1]), make_element(K, [1, -1])
        for j in range((1 << K) + 1):
            wh = _valuations(h)
            deficient = [l for l in range(K) if (wg[l] + wh[l])
                         .below(membership_bound(K, l))]
            if len(deficient) == 1:
                return CriterionVerdict.PROVES_NON_MEMBERSHIP, j, deficient[0]
            h = h * one_minus_chi
    return CriterionVerdict.INCONCLUSIVE, None, None


def test_witness_search_matches_a_scan_of_ring_powers():
    seen = set()
    for K in range(1, 9):
        for n in range(6):
            g = evaluate_at_f_squared(q_n(n), K, 1)
            found = criterion_necessary_search(g)
            assert found == ring_witness_scan(g)
            seen.add(found[1])
    assert {None, 0, 1} <= seen


def witness_scan(g, max_power):
    """The search's verdict from a scan of every j <= max_power, with the
    witness valuations w_l((1 - chi)^j) = j / 2^l and the deficiency rule
    written out."""
    K = g.level
    if oracle_parts(g) is not None:
        wg = _valuations(g)
        for j in range(max_power + 1):
            wh = _one_minus_chi_valuations(K, j)
            deficient = [l for l in range(K) if (wg[l] + wh[l])
                         .below(membership_bound(K, l))]
            if len(deficient) == 1:
                return CriterionVerdict.PROVES_NON_MEMBERSHIP, j, deficient[0]
    return CriterionVerdict.INCONCLUSIVE, None, None


def test_witness_search_thresholds_match_the_scan():
    # the first j with one deficient level, read off the per-level
    # thresholds, against a scan of every witness up to max_power: on
    # q-ladder elements, and on level parts in 4Z, whose witnesses reach
    # j > 1
    rng = random.Random(19)
    inputs = [evaluate_at_f_squared(q_n(n), K, k, "odd", m, t)
              for K in range(1, 9) for n in range(6) for k in (1, 3)
              for m in (1, 2) for t in (0, 1, 3)]
    for K in range(2, 8):
        for shift in (2, 3):
            for _ in range(30):
                inputs.append(crt_reconstruct([LevelProjection(l, [
                    rng.randrange(-3, 4) << (shift + rng.randrange(3))
                    for _ in range(1 << l)]) for l in range(K)]))
    seen = set()
    for g in inputs:
        for max_power in (0, 1, 5, 40, 1 << g.level):
            found = criterion_necessary_search(g, max_power)
            assert found == witness_scan(g, max_power)
            seen.add(found[1])
    assert {None, 0, 1, 2, 5} <= seen and max(seen - {None}) > 40


def test_witness_search_keeps_no_witness_table():
    # an inconclusive search at K = 12 reads thresholds, not 2^K + 1
    # cached witnesses
    import tracemalloc
    g = evaluate_at_f_squared(q_n(2), 12, 1)
    _one_minus_chi_valuations.cache_clear()
    tracemalloc.start()
    try:
        found = criterion_necessary_search(g)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == (CriterionVerdict.INCONCLUSIVE, None, None)
    assert held < 1 << 20


def test_witness_search_verdicts_hold_with_ring_powers_at_K_10():
    K = 10
    proved = 0
    for n in range(6):
        g = evaluate_at_f_squared(q_n(n), K, 1)
        verdict, j, l_star = criterion_necessary_search(g)
        if verdict == CriterionVerdict.PROVES_NON_MEMBERSHIP:
            h = make_element(K, [1, -1]) ** j
            assert criterion_necessary(g, h, l_star) == verdict
            assert not is_in_4Z(g)
            proved += 1
    assert proved


def test_criteria_never_contradict_the_oracle():
    rng = random.Random(13)
    for K in (1, 2, 3, 4):
        for _ in range(100):
            g = 4 * random_element(rng, K, span=4)
            if rng.randrange(2):
                g = g * (make_element(K, [1, -1]) ** rng.randrange(0, 3))
            member = is_in_4Z(g)
            if criterion_sufficient(g) == CriterionVerdict.PROVES_MEMBERSHIP:
                assert member
            verdict, _, _ = criterion_necessary_search(g)
            if verdict == CriterionVerdict.PROVES_NON_MEMBERSHIP:
                assert not member


def oracle_valuation(p):
    """(a, b) of the witnessed normal form of a LevelProjection."""
    if p.is_zero():
        return Valuation.infinite()
    nf = normal_form(p)
    return Valuation(nf.a, nf.b, p.level)


def oracle_parts(g):
    """Every LevelProjection of g, or None when one is not in 4Z."""
    parts = [project(g, l) for l in range(g.level)]
    return parts if all(p.in_4Z() for p in parts) else None


def oracle_sufficient(g):
    parts = oracle_parts(g)
    if parts is None or not all(
            oracle_valuation(p).at_least(membership_bound(g.level, l))
            for l, p in enumerate(parts)):
        return CriterionVerdict.INCONCLUSIVE
    return CriterionVerdict.PROVES_MEMBERSHIP


def oracle_deficient(g, h):
    """The levels where w_l(g) + w_l(h) falls below the bound, or None
    when g fails the hypothesis."""
    parts = oracle_parts(g)
    if parts is None:
        return None
    return [l for l, p in enumerate(parts)
            if (oracle_valuation(p) + oracle_valuation(project(h, l)))
            .below(membership_bound(g.level, l))]


def criterion_inputs(rng, K):
    """Elements in and out of 4Z, passing and failing the hypothesis."""
    out = []
    for dens in ((1,), (1, 2, 4), (1, 3)):
        for g in tower_inputs(rng, K, dens):
            for scale in (1, 4, 8, 1 << (K + 2)):
                g2 = g * scale
                out.append(g2)
                out.append(g2 * make_element(K, [1, -1]) ** rng.randrange(4))
    out.append(evaluate_at_f_squared([1], K, 1))
    # integral level parts in 4Z reassemble to denominators up to 2^K
    for shift in range(2, K + 4):
        parts = [LevelProjection(l, [rng.randrange(-3, 4) << shift
                                     for _ in range(1 << l)])
                 for l in range(K)]
        out.append(crt_reconstruct(parts))
    return out


def test_criteria_match_the_projection_route():
    rng = random.Random(16)
    seen = set()
    for K in range(1, 7):
        for g in criterion_inputs(rng, K):
            verdict = criterion_sufficient(g)
            assert verdict == oracle_sufficient(g)
            seen.add(verdict)
            found = criterion_necessary_search(g, 2 * K)
            want = (CriterionVerdict.INCONCLUSIVE, None, None)
            for j in range(2 * K + 1):
                deficient = oracle_deficient(g, make_element(K, [1, -1]) ** j)
                if deficient is not None and len(deficient) == 1:
                    want = (CriterionVerdict.PROVES_NON_MEMBERSHIP, j,
                            deficient[0])
                    break
            assert found == want
            seen.add(found[0])
            if found[1] is not None:
                witness = make_element(K, [1, -1]) ** found[1]
                assert criterion_necessary(g, witness, found[2]) \
                    == CriterionVerdict.PROVES_NON_MEMBERSHIP
            h = random_element(rng, K, span=3)
            deficient = oracle_deficient(g, h)
            for l_star in range(K):
                proves = deficient == [l_star]
                assert criterion_necessary(g, h, l_star) == (
                    CriterionVerdict.PROVES_NON_MEMBERSHIP if proves
                    else CriterionVerdict.INCONCLUSIVE)
    assert seen == set(CriterionVerdict)
    assert any(g.den > 1 and oracle_parts(g) is not None
               for g in criterion_inputs(random.Random(16), 4))


def test_x_polynomial_family():
    assert x_polynomial(0) == IntPolynomial((0, -1))
    assert x_polynomial(1) == IntPolynomial((0, -1))
    for m in range(6):
        lhs = IntPolynomial((1, -1)) ** (1 << m)
        mono = [0] * ((1 << m) + 1)
        mono[0] = 1
        mono[1 << m] = 1
        assert lhs == 2 * x_polynomial(m) + IntPolynomial(tuple(mono))
    with pytest.raises(ValueError):
        x_polynomial(-1)
