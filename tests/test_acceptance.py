"""Acceptance gate: one test per documented criterion, exact equality only.

Run with pytest -v to get a pass or fail line per criterion.
"""

import json
import random
from fractions import Fraction

from lensring import (
    CriterionVerdict,
    IntPolynomial,
    NormalInvariantVector,
    beta,
    beta_inv,
    conjugate,
    criterion_necessary_search,
    criterion_sufficient,
    crt_reconstruct,
    element_f,
    element_f_prime,
    evaluate_at_f_squared,
    is_in_4Z,
    kernel_oracle,
    make_element,
    membership_A,
    project,
    q_n,
    r_minus,
    reset_polynomial_tables,
    rho_bracket,
    split_n,
    structure_set,
    t_bar,
    t_to_polynomial,
    verify_A_equals_B,
    w_l,
    x_polynomial,
)
from lensring.cli import main
from lensring.polynomials import _confirm_r_minus


def random_element(rng, K, span=9):
    return make_element(K, [rng.randrange(-span, span + 1) for _ in range(1 << K)])


def test_criterion_1_valuation_worked_examples():
    # families 2^a, f, f +/- 1, f^2 - 1, f^2 + 1, f'_k for K <= 6,
    # k in {1, 3, 5, 7}, a in {0..4}; every value matched exactly
    for K in range(1, 7):
        f = element_f(K)
        one = make_element(K, [1])
        fsq = f * f
        for l in range(K):
            for a in range(5):
                w = w_l(make_element(K, [1 << a]), l)
                assert (w.a, w.b) == (a, 0)
            if l == 0:
                assert w_l(f, 0).is_infinite
            else:
                w = w_l(f, l)
                assert (w.a, w.b) == (0, 0)
            for s in (1, -1):
                w = w_l(f + make_element(K, [s]), l)
                assert (w.a, w.b) == (0, (1 << l) - 1)
            w = w_l(fsq - one, l)
            assert w.value() == Fraction(2) - Fraction(2, 1 << l)
            w = w_l(fsq + one, l)
            if l == 0:
                assert w.value() == 0
            elif l == 1:
                assert w.is_infinite
            else:
                assert w.value() == 1
            for k in (1, 3, 5, 7):
                w = w_l(element_f_prime(K, k), l)
                assert (w.a, w.b) == (0, 0)


def test_criterion_2_p_splitting_identity():
    # p_k(f^2) (1 - chi)^(2^k) = 2^(2^k - 1) (1 + chi^(2^k)) for k <= 4,
    # k < K <= 6, computed through public ring arithmetic
    from lensring import p_k

    for k in range(1, 5):
        poly = p_k(k)
        assert poly.is_monic() and poly.degree == 1 << (k - 1)
        for K in range(k + 1, 7):
            f = element_f(K)
            fsq = f * f
            value = make_element(K, [])
            for c in reversed(poly.coeffs):
                value = value * fsq + make_element(K, [c])
            lhs = value * (make_element(K, [1, -1]) ** (1 << k))
            rhs_coeffs = [0] * ((1 << k) + 1)
            rhs_coeffs[0] = 1
            rhs_coeffs[1 << k] = 1
            rhs = (1 << ((1 << k) - 1)) * make_element(K, rhs_coeffs)
            assert lhs == rhs


def test_criterion_3_divisibility_ladder():
    # all six ladder statements for n <= 5, k in {1, 3}, m in {1, 2},
    # s in {1, 2}
    def member(q, K, k, m, times=0):
        g = evaluate_at_f_squared(q, K, k, "odd", m,
                                  times_one_minus_chi=times)
        return is_in_4Z(g)

    for n in range(6):
        a, b = split_n(n)
        q = q_n(n)
        for k in (1, 3):
            for m in (1, 2):
                assert member(q, 2 * n + 1, k, m)
                assert member(q, 2 * n + 2, k, m) == (b == 0)
                assert not member(q, 2 * n + 3, k, m)
                if b > 0:
                    assert member(q, 2 * n + 2, k, m, times=2 * b - 1)
                for s in (1, 2):
                    times = 2 * n + 1 + (1 << a) * ((1 << s) - 2)
                    assert member(q, 2 * n + 2 + s, k, m, times=times)
                assert not member(q, 2 * n + 3, k, m, times=2 * n)


def test_criterion_4_best_polynomial_table():
    # the search reruns from scratch here; every level is solved at
    # (k, m) = (1, 1) and confirmed at the other three pairs by direct
    # evaluation, each with the same unique winner, and the results for
    # n <= 4 must equal the published table
    reset_polynomial_tables()
    expected = {
        0: (1,),
        1: (1, 1),
        2: (7, 0, 1),
        3: (1, 7, 7, 1),
        4: (127, -6, 0, 6, 1),
    }
    for n in range(7):
        record = r_minus(n)
        _confirm_r_minus(n)
        assert record.polynomial.is_monic()
        assert record.polynomial.degree == n
        if n in expected:
            assert record.polynomial.coeffs == expected[n]


def test_criterion_5_lattice_equality():
    # brute force enumeration agrees with the claimed basis for K <= 4,
    # k in {1, 3, 5}, d in {5..9}, within a budget of 2^20 tests
    for K in range(1, 5):
        for k in (1, 3, 5):
            for d in range(5, 10):
                report = verify_A_equals_B(K, k, d, budget=1 << 20)
                assert report.passed, (K, k, d)


def test_criterion_6_kernel_oracle():
    # enumerated kernel divisors match the closed form and the two
    # membership routes agree pointwise for d <= 9, K <= 3, k in {1, 3}
    rng = random.Random(60)
    for d in range(5, 10):
        c = (d - 1) // 2
        for K in range(1, 4):
            expected = tuple(
                sorted(1 << min(K, 2 * i) for i in range(1, c + 1))
            )
            for k in (1, 3):
                sub = kernel_oracle(d, K, k)
                assert sub.elementary_divisors == expected, (d, K, k)
                for _ in range(30):
                    t4 = tuple(rng.randrange(1 << K) for _ in range(c))
                    t = NormalInvariantVector(d, K, t4, (0,) * c)
                    via_rho = is_in_4Z(rho_bracket(t, k))
                    via_poly = membership_A(t_to_polynomial(t), K, k, d)
                    assert via_rho == via_poly, (d, K, k, t4)


def test_criterion_7_property_suites():
    # randomized exact properties: valuation product and sum rules on 500
    # pairs per K <= 5, projection round trips on 100 elements per K,
    # criterion soundness on 500 elements per K with zero wrong verdicts,
    # injectivity of f on the odd eigenspace, beta round trips, and the
    # x_k splitting identities for k <= 5
    rng = random.Random(61)
    for K in range(1, 6):
        for _ in range(500):
            g1, g2 = random_element(rng, K), random_element(rng, K)
            g1 = g1 * Fraction(1 << rng.randrange(3), 1 << rng.randrange(3))
            g12, gs = g1 * g2, g1 + g2
            for l in range(K):
                w1, w2 = w_l(g1, l), w_l(g2, l)
                assert w_l(g12, l) == w1 + w2
                ws = w_l(gs, l)
                if w1 == w2:
                    assert ws.is_infinite or w1.is_infinite \
                        or ws.value() >= w1.value()
                else:
                    assert ws == min(w1, w2)
        for _ in range(100):
            g = random_element(rng, K)
            assert crt_reconstruct([project(g, l) for l in range(K)]) == g
        wrong = 0
        for _ in range(500):
            g = 4 * random_element(rng, K, span=4)
            g = g * (make_element(K, [1, -1]) ** rng.randrange(3))
            member = is_in_4Z(g)
            sufficient = criterion_sufficient(g)
            if sufficient == CriterionVerdict.PROVES_MEMBERSHIP and not member:
                wrong += 1
            verdict, _, _ = criterion_necessary_search(g)
            if verdict == CriterionVerdict.PROVES_NON_MEMBERSHIP and member:
                wrong += 1
        assert wrong == 0
        f = element_f(K)
        for _ in range(50):
            p = random_element(rng, K)
            z = p - conjugate(p)
            assert (f * z).is_zero() == z.is_zero()
    for _ in range(200):
        poly = IntPolynomial(
            tuple(rng.randrange(-50, 51) for _ in range(rng.randrange(1, 10)))
        )
        assert beta_inv(beta(poly)) == poly
        assert beta(beta_inv(poly)) == poly
    for k in range(6):
        lhs = IntPolynomial((1, -1)) ** (1 << k)
        mono = [0] * ((1 << k) + 1)
        mono[0] = 1
        mono[1 << k] = 1
        assert lhs == 2 * x_polynomial(k) + IntPolynomial(tuple(mono))


def test_criterion_8_structure_set_descriptors(capsys):
    # descriptors for d in {5..9}, K in {1..6} against the closed formulas,
    # a kernel cross check for K <= 3, and a structured CLI spot check
    for d in range(5, 10):
        c = (d - 1) // 2
        for K in range(1, 7):
            s = structure_set(d, K)
            n = 1 << K
            assert s.free_rank == (n // 2 - 1 if d % 2 else n // 2)
            assert s.torsion == t_bar(d, K)
            assert len(s.torsion) == 2 * c
            assert all(x.order == 2 for x in s.torsion[:c])
            assert tuple(x.order for x in s.torsion[c:]) \
                == tuple(1 << min(K, 2 * i) for i in range(1, c + 1))
        for K in range(1, 4):
            got = kernel_oracle(d, K).elementary_divisors
            want = tuple(sorted(x.order for x in t_bar(d, K)[c:]))
            assert got == want
    code = main(["structure-set", "--d", "5", "--K", "3",
                 "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["free_rank"] == 3
    assert [t["order"] for t in doc["torsion"]] == [2, 2, 4, 8]
    assert doc["basis_provenance"].startswith("sha256:")
