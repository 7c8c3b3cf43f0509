"""Tests for the quotient ring arithmetic."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from lensring import (
    LevelProjection,
    RingElement,
    conjugate,
    crt_reconstruct,
    eigenspace_test,
    element_f,
    element_f_k,
    element_f_prime,
    element_from_text,
    element_to_text,
    evaluate_at_f_squared,
    invert,
    is_in_4Z,
    make_element,
    project,
    ring_arith,
)
from lensring import ring
from lensring.ring import (
    _element_from_vec,
    _eval_f2_vec,
    _family_vec,
    _level_family,
    _poly_mul_int,
    _power,
    _tower,
    _wrap,
)


def one(K):
    return make_element(K, [1])


def chi(K):
    return make_element(K, [0, 1])


def random_element(rng, K, span=9):
    return make_element(K, [rng.randrange(-span, span + 1) for _ in range(1 << K)])


def test_construction_validates_level_and_length():
    with pytest.raises(ValueError):
        RingElement(0, ())
    with pytest.raises(ValueError):
        RingElement(2, (Fraction(1),))
    RingElement(2, (Fraction(1), Fraction(0), Fraction(0)))
    # the counts are read off bit lengths: every other length is refused
    for level in range(1, 5):
        for length in range(1, 2 << level):
            text = f"K={level}; " + ",".join(["1"] * length)
            for build, want in (
                    (lambda: RingElement(level, [1] * length), (1 << level) - 1),
                    (lambda: LevelProjection(level, [1] * length), 1 << level),
                    (lambda: element_from_text(text), (1 << level) - 1)):
                if length == want:
                    build()
                else:
                    with pytest.raises(ValueError, match=f"2\\^{level}"):
                        build()


def test_huge_levels_are_checked_without_building_two_to_the_k():
    # a count or range check at level K compares bit lengths and names 2^K
    # in its message, so K = 4 * 10^8 builds nothing of 2^K bits
    import tracemalloc
    from lensring import NormalInvariantVector, Valuation, valuation_from_text
    K = 400_000_000
    cases = (
        (lambda: element_from_text(f"K={K}; 1,2"),
         rf"count for level {K}: expected 2\^{K} - 1, got 2$"),
        (lambda: RingElement(K, [1]), rf"length 2\^{K} - 1, got 1$"),
        (lambda: LevelProjection(K, [1]),
         rf"must have 2\^{K} coefficients, got 1$"),
        (lambda: NormalInvariantVector(5, K, (0, -1), (0, 0)),
         rf"t4\[1\] must be an int in \[0, 2\^{K}\)$"),
        (lambda: valuation_from_text(f"0+5/2^{K}"), None),
        (lambda: NormalInvariantVector(5, K, (7, 0), (1, 0)), None),
    )
    for call, message in cases:
        tracemalloc.start()
        try:
            if message is None:
                call()
            else:
                with pytest.raises(ValueError, match=message):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (message, peak)
    assert valuation_from_text(f"0+5/2^{K}") == Valuation(0, 5, K)
    with pytest.raises(ValueError, match=r"0 <= b < 2\^3, got 8"):
        Valuation(0, 8, 3)
    # the entry is named by its place, so one past Python's int-to-str
    # digit limit is reported, not printed
    with pytest.raises(ValueError, match=r"t4\[0\] must be an int in"):
        NormalInvariantVector(5, 20000, (1 << 20000, 0), (0, 0))


def test_construction_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        make_element(2, [0.5, 0, 0, 0])
    with pytest.raises(TypeError):
        make_element(2, [True, 0, 0, 0])
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            RingElement(2, (1, bad, 0))
        with pytest.raises(TypeError):
            LevelProjection(1, (bad, 1))
        with pytest.raises(TypeError):
            one(2) * bad
        with pytest.raises(TypeError):
            bad * project(one(2), 1)
    with pytest.raises(ValueError):
        RingElement(2, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        LevelProjection(1, (Fraction(1),))
    with pytest.raises(ValueError):
        LevelProjection(-1, ())


def test_make_element_folds_exponents():
    # chi^N = 1, so an index N entry folds onto the constant term
    K = 2
    folded = make_element(K, [0, 0, 0, 0, 5])
    assert folded == make_element(K, [5])
    # the norm element 1 + chi + ... + chi^(N-1) is zero
    assert make_element(K, [1, 1, 1, 1]).is_zero()
    # canonical representatives have degree < N - 1
    assert make_element(K, [0, 0, 0, 1]) == make_element(K, [-1, -1, -1])


def test_operators_match_ring_arith():
    rng = random.Random(0)
    for K in (1, 2, 3):
        for _ in range(10):
            a, b = random_element(rng, K), random_element(rng, K)
            assert ring_arith(a, b, "add") == a + b
            assert ring_arith(a, b, "sub") == a - b
            assert ring_arith(a, b, "mul") == a * b
    with pytest.raises(ValueError):
        ring_arith(one(2), one(2), "div")


def test_arithmetic_laws():
    rng = random.Random(1)
    for K in (1, 2, 3, 4):
        a, b, c = (random_element(rng, K) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == make_element(K, [])
        assert -a == make_element(K, []) - a


def test_scalar_and_power():
    K = 3
    a = make_element(K, [1, 2, 0, -1])
    assert 3 * a == a + a + a
    assert Fraction(1, 2) * (a + a) == a
    assert a ** 0 == one(K)
    assert a ** 3 == a * a * a
    rng = random.Random(29)
    for K in range(1, 7):
        a = random_element(rng, K, span=3)
        power = one(K)
        for e in range(10):
            assert a ** e == power
            power = power * a
    with pytest.raises(ValueError):
        a ** -1
    for exponent in (True, False):
        with pytest.raises(ValueError):
            a ** exponent


class Counted:
    """A value under a multiplication that counts its products."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        Counted.products += 1
        return Counted(self.value * other.value)


def test_power_of_two_exponent_costs_one_product_per_bit():
    for j in range(8):
        Counted.products = 0
        assert _power(Counted(3), 1 << j, Counted(1)).value == 3 ** (1 << j)
        assert Counted.products == j
    # 2^j - 1: j - 1 squarings and one multiply per set bit past the lowest
    for j in range(1, 8):
        Counted.products = 0
        assert _power(Counted(3), (1 << j) - 1, Counted(1)).value \
            == 3 ** ((1 << j) - 1)
        assert Counted.products == 2 * (j - 1)
    Counted.products = 0
    unit = Counted(1)
    assert _power(Counted(3), 0, unit) is unit and Counted.products == 0


def test_mixed_level_arithmetic_rejected():
    with pytest.raises(ValueError):
        one(2) + one(3)
    with pytest.raises(ValueError):
        one(2) * one(3)


def test_invert_basic():
    for K in (1, 2, 3, 4):
        u = one(K) - chi(K)
        assert u * invert(u) == one(K)
        v = make_element(K, [3])
        assert v * invert(v) == one(K)


def test_invert_rejects_zero_and_zero_divisors():
    K = 3
    with pytest.raises(ValueError):
        invert(make_element(K, []))
    # (1 - chi^4)(1 + chi^4) = 1 - chi^8 = 0, so 1 + chi^4 is a zero divisor
    zd = make_element(K, [1, 0, 0, 0, 1])
    assert not zd.is_zero()
    with pytest.raises(ValueError):
        invert(zd)
    # 1 + chi^(2^l) projects to zero at level l, for every l < K
    for K in range(1, 6):
        with pytest.raises(ValueError):
            invert(make_element(K, []))
        for l in range(K):
            with pytest.raises(ValueError):
                invert(one(K) + chi(K) ** (1 << l))


def test_invert_matches_sympy():
    x = sympy.Symbol("x")
    rng = random.Random(11)
    for K in range(1, 6):
        n = 1 << K
        ideal = sum(x ** j for j in range(n))
        for _ in range(6):
            a = make_element(K, [Fraction(rng.randrange(-9, 10),
                                          rng.choice((1, 2, 3, 8)))
                                 for _ in range(n - 1)])
            lift = sum(c * x ** j for j, c in enumerate(a.coeffs))
            try:
                expected = sympy.Poly(
                    sympy.invert(lift, ideal, x, domain=sympy.QQ), x
                )
            except sympy.polys.polyerrors.NotInvertible:
                with pytest.raises(ValueError):
                    invert(a)
                continue
            want = make_element(
                K, [Fraction(int(c.p), int(c.q))
                    for c in reversed(expected.all_coeffs())]
            )
            assert invert(a) == want
            assert a * want == one(K)


def test_element_f_identities():
    for K in (1, 2, 3, 4, 5):
        f = element_f(K)
        assert (one(K) - chi(K)) * f == one(K) + chi(K)
        for k in (1, 3, 5, 7):
            fk = element_f_k(K, k)
            fpk = element_f_prime(K, k)
            ck = chi(K) ** k
            assert (one(K) - ck) * fk == one(K) + ck
            assert fk == f * fpk
            assert fpk.is_integral()
        # f^2 - 1 = 4 chi / (1 - chi)^2
        lhs = f * f - one(K)
        assert lhs * (one(K) - chi(K)) ** 2 == 4 * chi(K)


def test_element_f_k_validates_k():
    with pytest.raises(ValueError):
        element_f_k(3, 2)
    with pytest.raises(ValueError):
        element_f_k(3, 4)


def test_eight_f_at_level_two():
    g = 8 * element_f(2)
    assert g.coeffs == (Fraction(4), Fraction(8), Fraction(4))
    assert is_in_4Z(g)


def test_conjugate_is_ring_involution():
    rng = random.Random(2)
    for K in (1, 2, 3):
        a, b = random_element(rng, K), random_element(rng, K)
        assert conjugate(conjugate(a)) == a
        assert conjugate(a + b) == conjugate(a) + conjugate(b)
        assert conjugate(a * b) == conjugate(a) * conjugate(b)
    K = 3
    assert conjugate(chi(K)) * chi(K) == one(K)


def test_eigenspace_membership():
    K = 3
    f = element_f(K)
    assert eigenspace_test(f, "-")
    assert not eigenspace_test(f, "+")
    assert eigenspace_test(f * f, "+")
    # chi + chi^(-1) is conjugation invariant and even at -1
    sym = chi(K) + chi(K) ** 7
    assert eigenspace_test(sym, "+")
    # the constant 1 is conjugation invariant but odd at -1
    assert not eigenspace_test(one(K), "+")
    assert eigenspace_test(make_element(K, []), "+")
    assert eigenspace_test(make_element(K, []), "-")
    assert eigenspace_test(f, "−")
    with pytest.raises(ValueError):
        eigenspace_test(f, "plus")


def test_is_in_4Z():
    K = 3
    assert is_in_4Z(4 * random_element(random.Random(3), K))
    assert not is_in_4Z(make_element(K, [2]))
    assert not is_in_4Z(Fraction(1, 2) * make_element(K, [4]))
    # 4f is integral but has odd entries
    assert (4 * element_f(K)).is_integral()
    assert not is_in_4Z(4 * element_f(K))
    # zero qualifies
    assert is_in_4Z(make_element(K, []))


def test_evaluate():
    K = 2
    a = make_element(K, [1, 2, 3])
    assert a.evaluate(1) == 6
    assert a.evaluate(-1) == 2
    assert a.evaluate(Fraction(1, 2)) == Fraction(1) + 1 + Fraction(3, 4)


def test_projection_is_a_ring_map():
    rng = random.Random(4)
    for K in (2, 3, 4):
        a, b = random_element(rng, K), random_element(rng, K)
        for l in range(K):
            pa, pb = project(a, l), project(b, l)
            assert project(a + b, l) == pa + pb
            assert project(a * b, l) == pa * pb
    with pytest.raises(ValueError):
        project(one(2), 2)
    with pytest.raises(ValueError):
        project(one(2), -1)


def test_atoms_project_through_level_l_plus_one():
    # pr_l factors through Q[chi]/I<l+1>, so every atom of the expression
    # language may be built there instead of at K
    atoms = [lambda K: make_element(K, [0]), lambda K: make_element(K, [-7]),
             lambda K: make_element(K, [1 << 70]), chi, element_f]
    for k in (1, 3, 5, 7, 9):
        atoms += [lambda K, k=k: element_f_k(K, k),
                  lambda K, k=k: element_f_prime(K, k)]
    for K in range(1, 9):
        for atom in atoms:
            g = atom(K)
            for l in range(K):
                assert project(g, l) == project(atom(l + 1), l)
        # chi^e for e up to 2^K + 3, as the language's ^ builds it
        low = [project(chi(l + 1), l) for l in range(K)]
        power = one(K)
        for e in range((1 << K) + 4):
            for l in range(K):
                assert project(power, l) == low[l] ** e
            power = power * chi(K)


def project_window(vec, l):
    """pr_l of a level-(l+1) family vector: its 2^(l+1) entries e folded by
    chi^(2^l) = -1, p_j = e_j - e_(j+2^l), over vec.den.  The canonical
    shift by the last entry cancels in each difference, so no level-(l+1)
    element is built: the window route to the level-l atoms."""
    return LevelProjection._from_ints(
        l, _wrap(vec.entries(2 << l), 1 << l, -1), vec.den)


def test_project_window_matches_project():
    # p_j = e_j - e_(j+2^l) over den equals pr_l of the level-(l+1) element,
    # for the windows of f, fk(k) and fpk(k), windows over den > 1, and
    # vectors held whole whose last entry is not zero
    rng = random.Random(12)
    dens = set()
    for l in range(11):
        for den in (1, 6, 1 << 9):
            entries = tuple(rng.randrange(-50, 51) for _ in range(2 << l))
            vec = ring._Window(2 << l, 1, entries[:-1] + (7,), (), den)
            assert project_window(vec, l) == project(
                _element_from_vec(l + 1, vec), l)
        for k in range(1, 15, 2):
            windows = [
                lambda K, k=k: _family_vec(K, k),
                lambda K, k=k: _family_vec(K, k, f_power=1),
                lambda K, k=k: _family_vec(K, k, f_power=2),
                lambda K, k=k: _family_vec(K, k, (3, 0, -5), f_power=3),
                lambda K, k=k: _family_vec(K, k, (1, 2), f2_minus_1=True,
                                           times_one_minus_chi=2),
            ]
            for window in windows:
                vec = window(l + 1)
                dens.add(vec.den)
                got = project_window(vec, l)
                assert got == project(_element_from_vec(l + 1, vec), l)
                assert (got.level, len(got.nums)) == (l, 1 << l)
    assert 1 in dens and max(dens) > 1


def test_level_atoms_match_the_window_route():
    # f, f_k and f'_k in closed form at level l equal the projections of
    # their level-(l+1) windows, for every odd k < 3 * 2^(l+1): k past the
    # order 2^(l+1) of chi names the same atoms as k mod 2^(l+1)
    for l in range(11):
        for k in range(1, 3 << (l + 1), 2):
            for f_power in (0, 1):
                want = project_window(_family_vec(l + 1, k, f_power=f_power),
                                      l)
                assert _level_family(l, k, f_power) == want, (l, k, f_power)
    assert _level_family(0, 7, 0).nums == (7,)
    assert _level_family(0, 7, 1).is_zero()
    for k in (0, 2, -1):
        with pytest.raises(ValueError, match="positive odd integer"):
            _level_family(3, k, 0)


def test_monomial_powers_match_square_and_multiply(monkeypatch):
    # c chi^j / den to the e in closed form against ring._power; below
    # eight entries every (c, den) meets every j, above that they take
    # turns along j
    combos = [(c, den) for c in (1, -1, 2, -3) for den in (1, 4)]
    for l in range(9):
        n = 1 << l
        unit = LevelProjection._from_ints(l, [1] + [0] * (n - 1))
        exponents = (0, 1, 2, 3, n - 1, n, n + 1, 2 * n + 3)
        for j in range(n):
            for c, den in combos if n < 8 else [combos[j % 8]]:
                nums = [0] * n
                nums[j] = c
                base = LevelProjection._from_ints(l, nums, den)
                for e in exponents:
                    assert base ** e == _power(base, e, unit), (l, j, c, e)
    # zero and two-term bases still go through square-and-multiply, and
    # every base rejects the same exponents
    calls = []

    def spy(base, exponent, one):
        calls.append(exponent)
        return _power(base, exponent, one)

    monkeypatch.setattr(ring, "_power", spy)
    chi3 = LevelProjection(3, [0, 0, 0, 1, 0, 0, 0, 0])
    zero = LevelProjection(3, [0] * 8)
    two_terms = LevelProjection(3, [1, 0, 0, 0, 0, Fraction(-1, 2), 0, 0])
    assert chi3 ** 5 == LevelProjection(3, [0, 0, 0, 0, 0, 0, 0, -1])
    assert calls == []
    assert zero ** 0 == LevelProjection(3, [1] + [0] * 7)
    assert zero ** 3 == zero
    assert two_terms ** 3 == two_terms * two_terms * two_terms
    assert calls == [0, 3, 3]
    for p in (chi3, zero, two_terms):
        for bad in (True, False, -1, 2.0):
            with pytest.raises(ValueError,
                               match="exponent must be a non-negative"):
                p ** bad


def test_level_projection_power():
    rng = random.Random(41)
    for l in range(6):
        unit = [1] + [0] * ((1 << l) - 1)
        assert LevelProjection(l, [0] * (1 << l)) ** 0 == LevelProjection(l, unit)
        for K in (l + 1, l + 3):
            g = random_element(rng, K) * Fraction(1, 6)
            p = project(g, l)
            acc = LevelProjection(l, unit)
            for e in range(12):
                assert p ** e == acc
                assert project(g ** e, l) == p ** e
                acc = acc * p
    p = project(chi(3), 2)
    for bad in (True, False, -1, 2.0):
        with pytest.raises(ValueError):
            p ** bad


def test_level_projection_is_negacyclic():
    # at level 1 the image of chi squares to -1
    p = LevelProjection(1, (Fraction(0), Fraction(1)))
    assert p * p == LevelProjection(1, (Fraction(-1), Fraction(0)))
    q = LevelProjection(0, (Fraction(3),))
    assert q * q == LevelProjection(0, (Fraction(9),))
    assert LevelProjection(1, (Fraction(4), Fraction(-8))).in_4Z()
    assert not LevelProjection(1, (Fraction(4), Fraction(2))).in_4Z()


def negacyclic_schoolbook(p, q):
    """p * q in Q[chi]/<1 + chi^(2^l)>, coefficient by coefficient."""
    m = 1 << p.level
    out = [Fraction(0)] * m
    for i, x in enumerate(p.coeffs):
        if x:
            for j, y in enumerate(q.coeffs):
                if y:
                    idx = i + j
                    if idx < m:
                        out[idx] += x * y
                    else:
                        out[idx - m] -= x * y
    return LevelProjection(p.level, tuple(out))


def test_level_products_match_schoolbook():
    rng = random.Random(8)

    def draw(l, dens, sparse):
        # a sparse draw leaves about half of the coefficients zero
        return LevelProjection(l, tuple(
            Fraction(0 if sparse and rng.randrange(2)
                     else rng.randrange(-99, 100), rng.choice(dens))
            for _ in range(1 << l)))

    odd = (1, 3, 5, 7, 9, 15, 45)
    two_powers = tuple(1 << e for e in range(12))
    for l in range(8):
        zero = LevelProjection(l, (Fraction(0),) * (1 << l))
        for dens in ((1,), odd, two_powers):
            for sparse in (False, True):
                p, q = draw(l, dens, sparse), draw(l, dens, sparse)
                for x, y in ((p, q), (q, p), (p, zero), (zero, p), (zero, zero)):
                    assert x * y == negacyclic_schoolbook(x, y)


def test_crt_round_trip():
    rng = random.Random(5)
    for K in (1, 2, 3, 4):
        for _ in range(20):
            g = random_element(rng, K)
            parts = [project(g, l) for l in range(K)]
            assert crt_reconstruct(parts) == g
    # deeper towers, with 2-power denominators
    for K in (5, 6, 7, 9, 10):
        for _ in range(4):
            g = make_element(K, [Fraction(rng.randrange(-99, 100),
                                          1 << rng.randrange(8))
                                 for _ in range(1 << K)])
            parts = [project(g, l) for l in range(K)]
            assert crt_reconstruct(parts) == g
    # and with odd denominators
    for K in (8, 9, 10):
        for _ in range(2):
            g = make_element(K, [Fraction(rng.randrange(-99, 100),
                                          rng.choice((1, 3, 5, 9, 15, 45)))
                                 for _ in range(1 << K)])
            parts = [project(g, l) for l in range(K)]
            assert crt_reconstruct(parts) == g
    with pytest.raises(ValueError):
        crt_reconstruct([])


def test_crt_rejects_misordered_levels():
    g = random_element(random.Random(6), 3)
    parts = [project(g, l) for l in range(3)]
    with pytest.raises(ValueError):
        crt_reconstruct(parts[::-1])


def strided_fold(coeffs, l):
    """The reference fold modulo 1 + chi^(2^l): 2^(l+1) strided slice sums."""
    m = 1 << l
    step = 2 * m
    return [sum(coeffs[r::step]) - sum(coeffs[r + m::step]) for r in range(m)]


def test_fold_matches_strided_oracle():
    # the fold by chi^(2^l) = -1 that `project` takes
    rng = random.Random(22)
    for K in range(1, 11):
        n = 1 << K
        for l in range(K):
            m = 1 << l
            # N - 1 entries as a ring element has them, lists around and
            # below 2^(l+1) entries, and lengths that are no power of two
            lengths = {0, 1, m - 1, m, 2 * m - 1, 2 * m, 2 * m + 1, 3 * m + 1,
                       5 * m - 3, n - 1, n, n + 3}
            for length in sorted(lengths):
                for bits in (4, 200):
                    coeffs = tuple(signed_draw(rng, length, bits))
                    want = strided_fold(coeffs, l)
                    assert _wrap(coeffs, m, -1) == want
                    assert _wrap(list(coeffs), m, -1) == want


def entrywise_wrap(coeffs, n, s):
    """The reference reduction by chi^n = s, one entry at a time: c_j goes
    to entry j mod n times s^(j div n)."""
    out = [0] * n
    for j, c in enumerate(coeffs):
        out[j % n] += s ** (j // n) * c
    return out


def test_wrap_matches_entrywise_oracle():
    rng = random.Random(24)
    for e in range(11):
        n = 1 << e
        # every route: zero-padding, halving and strided sums
        lengths = {0, 1, n - 1, n, n + 1, 2 * n - 1, 2 * n + 1, 3 * n + 1,
                   16 * n}
        for length in sorted(lengths):
            for bits in (4, 200):
                coeffs = tuple(signed_draw(rng, length, bits))
                for s in (1, -1):
                    want = entrywise_wrap(coeffs, n, s)
                    assert _wrap(coeffs, n, s) == want
                    assert _wrap(list(coeffs), n, s) == want


def old_make_element(K, nums, den):
    """The reduction loop make_element ran on its integer numerators, kept
    as the oracle of `RingElement._from_cyclic` and `_wrap`."""
    n = 1 << K
    acc = [0] * n
    for j, v in enumerate(nums):
        acc[j % n] += v
    top = acc[n - 1]
    return RingElement._from_ints(K, [v - top for v in acc[:-1]], den)


def test_from_cyclic_matches_the_old_make_element_loop():
    rng = random.Random(25)
    for K in range(1, 10):
        n = 1 << K
        for bits in (4, 200):
            for den in (1, 3, 1 << K, 12):
                z = signed_draw(rng, n, bits, zeros=bool(den % 2))
                got = RingElement._from_cyclic(K, z, den)
                want = old_make_element(K, z, den)
                assert (got.level, got.den, got.nums) \
                    == (want.level, want.den, want.nums)
                # any length through make_element's wrap
                raw = signed_draw(rng, rng.randrange(3 * n), bits)
                got = make_element(K, [Fraction(v, den) for v in raw])
                want = old_make_element(K, raw, den)
                assert (got.level, got.den, got.nums) \
                    == (want.level, want.den, want.nums)


def test_tower_equals_the_per_level_folds():
    rng = random.Random(23)
    for K in range(1, 11):
        for bits in (4, 200):
            nums = tuple(signed_draw(rng, (1 << K) - 1, bits))
            assert _tower(nums) == [strided_fold(nums, l) for l in range(K)]
        # over the element's denominator the parts are its projections
        g = random_element(rng, K) * Fraction(1, 3 << K)
        assert [LevelProjection(l, [Fraction(v, g.den) for v in part])
                for l, part in enumerate(_tower(g.nums))] \
            == [project(g, l) for l in range(K)]


def test_large_products_cross_check():
    # products big enough to engage the fast integer convolution
    rng = random.Random(7)
    K = 7
    n = 1 << K
    a = make_element(K, [rng.randrange(-10**9, 10**9) for _ in range(n)])
    b = make_element(K, [rng.randrange(-10**9, 10**9) for _ in range(n)])
    ab = a * b
    # fold the schoolbook product by hand
    acc = [Fraction(0)] * n
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        for j, cb in enumerate(b.coeffs):
            acc[(i + j) % n] += ca * cb
    assert ab == make_element(K, acc)


def test_evaluate_at_f_squared_matches_dense_route():
    q = [1, 3, 1]
    for K in (3, 4):
        f = element_f(K)
        fsq = f * f
        for k in (1, 3):
            fpk = element_f_prime(K, k)
            qf = make_element(K, [])
            for c in reversed(q):
                qf = qf * fsq + make_element(K, [c])
            for m in (1, 2):
                want = 8 * fpk * f ** m * qf
                got = evaluate_at_f_squared(q, K, k, "odd", m)
                assert got == want
            want = 8 * fpk * (fsq - one(K)) * qf
            assert evaluate_at_f_squared(q, K, k, "even") == want
            scaled = evaluate_at_f_squared(
                q, K, k, "odd", 1, times_one_minus_chi=3
            )
            assert scaled == 8 * fpk * f * qf * (one(K) - chi(K)) ** 3


def test_evaluate_at_f_squared_validates_arguments():
    with pytest.raises(ValueError):
        evaluate_at_f_squared([1], 3, 1, "odd", 3)
    with pytest.raises(ValueError):
        evaluate_at_f_squared([1], 3, 1, "even", 1)
    with pytest.raises(ValueError):
        evaluate_at_f_squared([1], 3, 1, "cyclic")
    # the internal builder checks the mode first, even for q = 0
    with pytest.raises(ValueError, match="mode must be"):
        _eval_f2_vec((0,), 3, 1, "cyclic")
    with pytest.raises(ValueError):
        evaluate_at_f_squared([1], 3, 1, "odd", 1, times_one_minus_chi=-1)
    with pytest.raises(ValueError):
        evaluate_at_f_squared([Fraction(1, 2)], 3, 1)
    # bools are not exponents, although True == 1
    with pytest.raises(ValueError):
        evaluate_at_f_squared((1, 2), 3, 1, "odd", True)
    with pytest.raises(ValueError):
        evaluate_at_f_squared((1, 2), 3, 1, "odd", 1, True)
    with pytest.raises(ValueError):
        evaluate_at_f_squared((1, 2), 3, 1, "odd", True, True)
    with pytest.raises(ValueError):
        evaluate_at_f_squared((1, 2), 3, 1, "odd", 1.0)
    assert (evaluate_at_f_squared((1, 2), 3, 1, "odd", 1, 1)
            == evaluate_at_f_squared((1, 2), 3, 1, "odd", 1) * (
                make_element(3, [1, -1])))


def test_text_round_trip():
    rng = random.Random(8)
    for K in (1, 2, 3):
        for _ in range(20):
            g = make_element(
                K,
                [
                    Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
                    for _ in range(1 << K)
                ],
            )
            assert element_from_text(element_to_text(g)) == g
    assert element_to_text(make_element(2, [1, Fraction(1, 2)])) \
        == "K=2; 1,1/2,0"


def test_text_parse_rejects_malformed_input():
    for bad in (
        "K=0; 1",
        "K=2; 1,2",
        "K=2; 1,2,3,4",
        "K=2; 1,2,x",
        "K=2; 1,1/0,0",
        "K=2; 1, 2, 3",
        "2; 1,2,3",
    ):
        with pytest.raises(ValueError):
            element_from_text(bad)


def test_text_parsers_read_ascii_digits_only():
    # Python's \d also matches other scripts' decimal digits; the writers
    # emit ASCII only, so the parsers must refuse the rest
    from lensring import valuation_from_text, valuation_to_text
    for bad in ("K=\u0661; 5", "K=1; \u0665", "K=1; 5/\u0663",
                "K=1; 5\u00b2", "K=\u00b9; 5"):
        with pytest.raises(ValueError):
            element_from_text(bad)
    for bad in ("1+\u0663/2^2", "\u0661+3/2^2", "1+3/2^\u0662",
                "1+3/2^\u00b2"):
        with pytest.raises(ValueError):
            valuation_from_text(bad)
    g = make_element(3, [Fraction(-7, 3), 0, 11, Fraction(5, 8)])
    assert element_from_text(element_to_text(g)) == g
    w = valuation_from_text("1+3/2^2")
    assert valuation_to_text(w) == "1+3/2^2"
    assert valuation_from_text(valuation_to_text(w)) == w


def test_text_level_past_the_int_to_str_limit():
    # a K= prefix of 5000 digits is read through decimal, like the
    # coefficients, and named by its size in bits in the count message
    with pytest.raises(ValueError,
                       match=r"^wrong coefficient count for level <int of"
                             r" 16607 bits>: expected 2\^<int of 16607"
                             r" bits> - 1, got 1$"):
        element_from_text("K=" + "1" * 5000 + "; 1")
    assert element_from_text("K=" + "0" * 5000 + "2; 1,2,3") \
        == make_element(2, [1, 2, 3])


# ---------------------------------------------------------------------------
# the stored form: integer numerators over one denominator, in lowest terms
# ---------------------------------------------------------------------------

DENOMINATORS = {
    "integral": (1,),
    "odd": (1, 3, 5, 7, 9, 15, 45),
    "two-power": tuple(1 << e for e in range(12)),
    "mixed": tuple(range(1, 50)),
    "zero": (1, 7),
}


def draw_raw(rng, K, kind):
    """Raw coefficients of any length up to 2N + 1, so that some wrap."""
    top = 0 if kind == "zero" else 99
    return [Fraction(rng.randrange(-top, top + 1),
                     rng.choice(DENOMINATORS[kind]))
            for _ in range(rng.randrange(2 << K))]


def fraction_reduce(K, raw):
    """Canonical coefficients of sum(raw[j] chi^j), in Fractions only."""
    n = 1 << K
    acc = [Fraction(0)] * n
    for j, c in enumerate(raw):
        acc[j % n] += Fraction(c)
    return tuple(c - acc[-1] for c in acc[:-1])


def fraction_product(K, a, b):
    """Schoolbook product of two canonical coefficient tuples."""
    n = 1 << K
    acc = [Fraction(0)] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                acc[(i + j) % n] += x * y
    return fraction_reduce(K, acc)


def assert_lowest_terms(x):
    # gcd(den, 0, ..., 0) = den, so this also forces den = 1 on zero
    assert x.den > 0 and math.gcd(x.den, *x.nums) == 1


def test_coeffs_match_fraction_oracle():
    rng = random.Random(12)
    for K in range(1, 9):
        for kind in DENOMINATORS:
            ra, rb = draw_raw(rng, K, kind), draw_raw(rng, K, kind)
            a, b = make_element(K, ra), make_element(K, rb)
            ca, cb = fraction_reduce(K, ra), fraction_reduce(K, rb)
            s = Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))
            results = [
                (a, ca), (b, cb),
                (a + b, tuple(x + y for x, y in zip(ca, cb))),
                (a - b, tuple(x - y for x, y in zip(ca, cb))),
                (-a, tuple(-x for x in ca)),
                (a * s, tuple(x * s for x in ca)),
            ]
            # the Fraction schoolbook is slow at K = 8: one kind suffices
            if K < 8 or kind == "mixed":
                results.append((a * b, fraction_product(K, ca, cb)))
            for got, want in results:
                assert got.coeffs == want
                assert_lowest_terms(got)


def test_equal_values_from_different_routes_are_equal_and_hash_equal():
    rng = random.Random(13)
    for K in range(1, 7):
        a = make_element(K, draw_raw(rng, K, "mixed"))
        b = make_element(K, draw_raw(rng, K, "two-power"))
        # 1 + 2x with x integral projects to a unit at every level
        u = one(K) + 2 * random_element(rng, K)
        pairs = [
            (make_element(K, [2]) * Fraction(1, 2), one(K)),
            (a + b - b, a),
            (invert(invert(u)), u),
            (crt_reconstruct([project(a, l) for l in range(K)]), a),
            (b - b, make_element(K, [])),
        ]
        for l in range(K):
            pa, pb = project(a, l), project(b, l)
            pairs.append((pa + pb - pb, pa))
            pairs.append((pb * Fraction(3, 2) * Fraction(2, 3), pb))
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
            assert (x.level, x.den, x.nums) == (y.level, y.den, y.nums)
            assert_lowest_terms(x)
    # an element never equals a projection
    assert make_element(2, [1]) != project(make_element(2, [1]), 1)


def test_coeffs_is_a_cached_read_only_view():
    g = make_element(3, [1, Fraction(1, 2)])
    assert g.nums == (2, 1, 0, 0, 0, 0, 0) and g.den == 2
    for x in (g, project(g, 2)):
        assert x.coeffs is x.coeffs
        for name in ("level", "den", "nums", "coeffs", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)


# ---------------------------------------------------------------------------
# the one integer convolution: plain, cyclic and negacyclic
# ---------------------------------------------------------------------------

def schoolbook(a, b):
    """The product over ints, cell by cell."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def wrapped(coeffs, wrap):
    """sum(coeffs[j] chi^j) reduced by chi^n = s, for wrap = (n, s)."""
    n, s = wrap
    out = [0] * n
    for j, v in enumerate(coeffs):
        out[j % n] += s ** (j // n) * v
    return out


def assert_all_wraps(a, b):
    """Plain product and, for every n >= max(len(a), len(b)) tried, the
    cyclic and negacyclic ones, against the schoolbook."""
    plain = schoolbook(a, b)
    assert _poly_mul_int(a, b) == plain
    longest = max(len(a), len(b))
    for n in {longest, longest + 1, len(a) + len(b) - 1, 2 * longest}:
        for s in (1, -1):
            assert _poly_mul_int(a, b, (n, s)) == wrapped(plain, (n, s))


def signed_draw(rng, length, bits, zeros=False):
    vals = [rng.randrange(-(1 << bits) + 1, 1 << bits) for _ in range(length)]
    if zeros:
        vals = [v if rng.randrange(2) else 0 for v in vals]
    return vals


def test_poly_mul_int_lengths_match_schoolbook():
    rng = random.Random(21)
    lengths = (1, 2, 3, 7, 8, 9, 17, 31, 64, 65, 127, 300)
    for la in lengths:
        for lb in lengths:
            if la * lb > 300 * 17 and la != lb:
                continue
            a = signed_draw(rng, la, rng.choice((1, 4, 12, 30)))
            b = signed_draw(rng, lb, rng.choice((1, 4, 12, 30)), zeros=True)
            assert_all_wraps(a, b)
    # empty, zero and one-entry operands
    assert _poly_mul_int([], [1, 2]) == _poly_mul_int([3], []) == []
    assert _poly_mul_int([], [1, 2], (4, -1)) == [0] * 4
    for la, lb in ((1, 1), (1, 40), (40, 1), (13, 40), (300, 2)):
        zero_a, zero_b = [0] * la, [0] * lb
        a, b = signed_draw(rng, la, 20), signed_draw(rng, lb, 20)
        for x, y in ((zero_a, b), (a, zero_b), (zero_a, zero_b), (a, b)):
            assert_all_wraps(x, y)
    with pytest.raises(ArithmeticError):
        _poly_mul_int([1] * 5, [1] * 3, (4, 1))


def test_poly_mul_int_digit_widths_match_schoolbook():
    # one-bit to about 7000-bit entries: packed digits of 1 byte to well
    # past the 8 bytes that struct handles
    rng = random.Random(22)
    for bits in (1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 27, 28, 29, 31, 32, 33,
                 60, 61, 62, 63, 64, 65, 100, 500, 2000, 7000):
        for la, lb in ((9, 9), (20, 13), (3, 40), (64, 64)):
            a = signed_draw(rng, la, bits, zeros=la > 20)
            b = signed_draw(rng, lb, rng.choice((1, bits)))
            assert_all_wraps(a, b)
            square = schoolbook(a, a)
            assert _poly_mul_int(a, a) == square
            for s in (1, -1):
                assert _poly_mul_int(a, a, (la, s)) == wrapped(square, (la, s))


def test_poly_mul_int_at_the_digit_bound():
    # every product coefficient lies within bound = max|a| * max|b| *
    # min(la, lb); here some coefficient reaches it, on either side of a
    # digit limit 2^(8w - 1), with la * lb past the schoolbook cutover
    cases = [
        (127, 1, 1, 127),     # 2^7 - 1: 127 terms of 1 * 1
        (31, 7, 151, 31),     # 2^15 - 1 = 31 * 7 * 151
    ]
    for bits in (7, 15, 31, 63, 71, 127, 6999):
        cases.append((1, (1 << bits) - 1, 1, 70))
    for bits in (8, 16, 32, 64, 72, 128, 7000):
        h = (bits - 5) // 2
        cases.append((16, 1 << h, 1 << (bits - 5 - h), 16))
    for m, x, y, lb in cases:
        bound = m * x * y
        top = 1 << ((bound.bit_length() + 1) // 8 * 8 - 1)
        assert bound in (top - 1, top)
        for sa, sb in ((1, 1), (1, -1), (-1, -1)):
            a = [sa * x] * m
            for b in ([sb * y] * lb, [sb * y] * lb + [0, -sb * y]):
                assert max(map(abs, schoolbook(a, b))) == bound
                assert_all_wraps(a, b)
                assert_all_wraps(b, a)
            square, n = schoolbook(b, b), len(b)
            assert _poly_mul_int(b, b) == square
            for s in (1, -1):
                assert _poly_mul_int(b, b, (n, s)) == wrapped(square, (n, s))


def assert_product_at_points(a, b, c, modulus):
    """c(x) = a(x) * b(x) modulo modulus(x) at a few integer points x: a
    check by Horner evaluation that shares nothing with the packing."""
    for x in (3, -5, 7):
        values = [0, 0, 0]
        for i, coeffs in enumerate((a, b, c)):
            for v in reversed(coeffs):
                values[i] = values[i] * x + v
        assert (values[2] - values[0] * values[1]) % modulus(x) == 0


def test_ring_and_level_products_on_invert_sized_numerators():
    # numerator bits as measured on the inverse of a small element: the
    # result at K = 9 and 10, and its level parts at K - 2 and K - 1
    rng = random.Random(23)

    def draw(length, bits):
        return [rng.randrange(-(1 << bits), 1 << bits) for _ in range(length)]

    for K, ring_bits, level_bits in ((9, 3400, (900, 1700)),
                                     (10, 7200, (1800, 3600))):
        n = 1 << K
        x = RingElement._from_ints(K, draw(n - 1, ring_bits))
        y = RingElement._from_ints(K, draw(n - 1, 3))
        # canonical coefficients agree modulo the norm 1 + chi + ... +
        # chi^(N-1), which is (x^N - 1) / (x - 1) at chi = x
        assert_product_at_points(x.nums, y.nums, (x * y).nums,
                                 lambda t: (t ** n - 1) // (t - 1))
        for l, bits in zip((K - 2, K - 1), level_bits):
            p = LevelProjection._from_ints(l, draw(1 << l, bits))
            q = LevelProjection._from_ints(l, draw(1 << l, 3))
            # squarings only below l = 9, where one would take 0.8 s
            for u, v in ((p, q), (p, p)) if l < 9 else ((p, q),):
                assert_product_at_points(u.nums, v.nums, (u * v).nums,
                                         lambda t: t ** (1 << l) + 1)
