"""Tests for the polynomial families and the obstruction lattices."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from lensring import (
    ONE,
    X,
    BudgetExceededError,
    IntPolynomial,
    LatticeDescriptor,
    b_basis,
    beta,
    beta_inv,
    brute_force_A,
    evaluate_at_f_squared,
    kernel_oracle,
    membership_A,
    p_k,
    q_n,
    r_minus,
    r_plus,
    reset_polynomial_tables,
    shape_remark_report,
    split_n,
    verify_A_equals_B,
)
from lensring import polynomials, ring
from lensring.polynomials import _smith_normal_form


def test_int_polynomial_basics():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPolynomial(()).is_zero()
    assert IntPolynomial(()).degree == -1
    assert p.coefficient(0) == 1
    assert p.coefficient(5) == 0
    with pytest.raises(TypeError):
        IntPolynomial((1.5,))
    with pytest.raises(TypeError):
        IntPolynomial((True,))


def test_int_polynomial_arithmetic():
    a = IntPolynomial((1, 2, 3))
    b = IntPolynomial((0, 1))
    assert a + b == IntPolynomial((1, 3, 3))
    assert a - a == IntPolynomial(())
    assert a * b == IntPolynomial((0, 1, 2, 3))
    assert 2 * a == IntPolynomial((2, 4, 6))
    assert a ** 0 == ONE
    assert (X + ONE) ** 2 == IntPolynomial((1, 2, 1))
    assert a.shift(2) == IntPolynomial((0, 0, 1, 2, 3))
    assert a(2) == 1 + 4 + 12
    assert str(IntPolynomial((127, -6, 0, 6, 1))) == "x^4 + 6x^3 - 6x + 127"
    assert str(IntPolynomial(())) == "0"


def test_int_polynomial_shift_rejects_a_negative_power():
    with pytest.raises(ValueError, match="shift must be non-negative"):
        IntPolynomial((1, 2)).shift(-1)


def test_family_coefficients_are_integers():
    # a scalar or an integral Fraction reads as the int; anything else is
    # refused, by value (ValueError) or by type (TypeError)
    want = evaluate_at_f_squared((3,), 4, 3)
    member = membership_A((3,), 4, 3, 7)
    for q in (3, Fraction(3), Fraction(6, 2), [Fraction(3)]):
        assert evaluate_at_f_squared(q, 4, 3) == want
        assert membership_A(q, 4, 3, 7) == member
    for evaluate in (lambda q: evaluate_at_f_squared(q, 4, 3),
                     lambda q: membership_A(q, 4, 3, 7)):
        with pytest.raises(ValueError, match="must be integers"):
            evaluate(Fraction(1, 2))
        for bad in (1.5, True, [1.5], (1, True)):
            with pytest.raises(TypeError, match="must be integers"):
                evaluate(bad)


def test_int_polynomial_power():
    rng = random.Random(3)
    for _ in range(5):
        p = IntPolynomial(tuple(rng.randrange(-9, 10) for _ in range(5)))
        power = ONE
        for e in range(12):
            assert p ** e == power
            power = power * p
    assert IntPolynomial(()) ** 0 == ONE
    assert IntPolynomial(()) ** 3 == IntPolynomial(())
    # the binomial theorem at an exponent past one multiply per step
    assert (X + ONE) ** 100 == IntPolynomial(
        tuple(math.comb(100, j) for j in range(101)))
    for bad in (True, False, -1, 2.0):
        with pytest.raises(ValueError):
            X ** bad


def test_p_polynomials_match_the_recursion():
    # independent route: the paper's recursion p_1 = x + 1,
    # p_{k+1}(x) = p_k((x+1)^2 / 4x) (4x)^d with d = 2^(k-1), that is
    # sum_j c_j (x+1)^(2j) (4x)^(d-j), by Horner in (x+1)^2
    want = [1, 1]
    for k in range(1, 11):
        p = p_k(k)
        assert p.coeffs == tuple(want)
        assert p.degree == 1 << (k - 1) and p.is_monic()
        d = len(want) - 1
        acc = [want[d]]
        for j in range(d - 1, -1, -1):
            acc = [a + 2 * b + c for a, b, c in
                   zip(acc + [0, 0], [0] + acc + [0], [0, 0] + acc)]
            acc[d - j] += want[j] << 2 * (d - j)
        want = acc


def test_p_polynomials_frozen_values():
    assert p_k(1).coeffs == (1, 1)
    assert p_k(2).coeffs == (1, 6, 1)
    assert p_k(3).coeffs == (1, 28, 70, 28, 1)
    for bad in (0, -1, True, 2.0):
        with pytest.raises(ValueError):
            p_k(bad)


def test_p_polynomial_symbolic_identity():
    # sum_j c_j (1+y)^(2j) (1-y)^(2^k - 2j) collapses to 2^(2^k - 1) (1 + y^(2^k))
    y = sympy.symbols("y")
    for k in range(1, 5):
        n = 1 << k
        total = sum(
            c * (1 + y) ** (2 * j) * (1 - y) ** (n - 2 * j)
            for j, c in enumerate(p_k(k).coeffs)
        )
        assert sympy.expand(total - (1 + y**n) * 2 ** (n - 1)) == 0


def test_split_n():
    assert split_n(0) == (0, 0)
    assert split_n(1) == (1, 0)
    assert split_n(2) == (1, 1)
    assert split_n(6) == (2, 3)
    for n in range(40):
        a, b = split_n(n)
        assert (1 << a) + b == n + 1
        assert 0 <= b < 1 << a
    with pytest.raises(ValueError):
        split_n(-1)


def test_q_polynomials():
    for n in range(12):
        a, b = split_n(n)
        prod = ONE
        for i in range(1, a + 1):
            prod = prod * p_k(i)
        prod = prod * (X - ONE) ** b
        q = q_n(n)
        assert q == prod
        assert q.is_monic() and q.degree == n
    assert q_n(2) == IntPolynomial((-1, 0, 1))
    assert q_n(3) == IntPolynomial((1, 7, 7, 1))


def test_beta_definition_and_round_trip():
    rng = random.Random(20)
    for _ in range(100):
        q = IntPolynomial(
            tuple(rng.randrange(-40, 41) for _ in range(rng.randrange(1, 10)))
        )
        bq = beta(q)
        # (x - 1) beta(q) = x q(x) - q(1)
        assert (X - ONE) * bq == X * q - IntPolynomial((q(1),))
        assert beta_inv(bq) == q
        assert beta(beta_inv(q)) == q
    assert beta(X + ONE) == X + 2 * ONE
    assert beta(IntPolynomial((5,))) == IntPolynomial((5,))


def test_r_minus_search_and_frozen_table():
    reset_polynomial_tables()
    expected = {
        0: ((1,), {}),
        1: ((1, 1), {}),
        2: ((7, 0, 1), {0: 1}),
        3: ((1, 7, 7, 1), {0: 0}),
        4: ((127, -6, 0, 6, 1), {0: 1, 1: 0}),
        # frozen from the uniqueness search oracle
        5: ((129, 133, -6, -6, 5, 1), {0: 0, 1: 1}),
        6: ((895, -4, 139, 0, -11, 4, 1), {0: 0, 1: 0, 2: 1}),
    }
    for n, (coeffs, bits) in expected.items():
        record = r_minus(n)
        assert record.polynomial.coeffs == coeffs
        assert record.chosen_bits == bits
        assert record.polynomial.is_monic()
        assert record.polynomial.degree == n


# sha256 of ",".join(map(str, r_minus(n).polynomial.coeffs)), as pinned by
# the benchmark from the seed commit's output for n <= 9, for 10 <= n <= 16
# from the search that evaluated every (k, m) vector directly, and for
# 17 <= n <= 30 from the search that tried all 2^(n/2) correction masks
# (before the GF(2) solver); the lower rungs being pinned, the coefficients
# also fix the bits
R_MINUS_SHA256 = {
    0: "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    1: "03ebfc2d40db30128bccfcea3aa3e32abd00335d2054f06631f31fe711a3be58",
    2: "09f64153245122a403dfe4e044b62d392ae493516731ed398da0303cd97e2da7",
    3: "c3232083f91de5d377f9ce7da2886fa3a5ca7d605ccb807a043c3d0c127f819e",
    4: "f1a11fa0d3caa6c98bc45630da3352381ee9f95177b5c5e03d8d06f199a0d058",
    5: "9b3b7569e5e88b847bf4764f0c195bfdf143c582c334d2398dee9458e211c655",
    6: "2b41305fec88b39b958fd430974805cc8ec8d81e20a84505e8b71333223a1414",
    7: "05c12b2c8bed0fcacfdd6b3ba24ab6fc7205366d614a913e23dc073cd40ff079",
    8: "b4205cb80d0a28e695e52f5125c26da137e30f18157488de27519ad667aeceb3",
    9: "9cf73d89fcd2f91109be000b9b7d242dea1a3fd5dfa19642f0f624b5ebffdee0",
    10: "489865e5fd6633a9575a5b1b0d563df1b2500fb320b73fb7f2360ef41144b347",
    11: "128b361ede46efd612553928d8e87f5950c6f25748fece19132d6ea5d432107a",
    12: "ea0663376c25e843862cda10d452e6242523741b6f3a1623a41c07b0c401909e",
    13: "22b8665bbec640dcbf241de09aa3492ce8d782ee8caaf46a53a498b3e8da5cb7",
    14: "eb11371ab7ee734dac7529c3412cf2f9fecb655099e8ac36c1189d29bd757cb5",
    15: "e2965de8b6af1008045b2468533a197acba8a58166c64e6648231b38f754ed60",
    16: "c238b719667a6165184aca1473b0ae54870a9806d89bbe0c35808bad00f086d6",
    17: "f1f5e0a2d974f10ccb26722a1594f17fde96a00da0a2601c8aaf6ebab88ece91",
    18: "db44e191907babe97210f6eb42f557d312a612cb8b518648eae2d7e419b7aedc",
    19: "2bfb23a4ccaa6f0bb674bfef55a39588707a83c582d5d7d91c0aaa3de0ac79b4",
    20: "6265598050c5d1e7394e4a49e3db9bc8a930f2f3fe38df9356772c8479633d7a",
    21: "ea27d921af47f55ba4446a30a76b2b111826c14f9c5ad11c33a33426f16f4bb5",
    22: "60b68ee856980e3eff384c52eaf972a60e089e954e5afea8f3c6353a6f893a0c",
    23: "507f1a96918f6e213c198e4a42e5394920c6c01c55c0dce723ae980347ec7d35",
    24: "f0cc39deac4e50d972eddb91023c700e229b60b2d0501335f2c0fbfc0eea0c5c",
    25: "db7500cfb489c2b951452d6ca11fe646ddbcf60e6de3158611e256c737c8ba2f",
    26: "abfb42201238580b551bc215eea0603cf9a67556b5c6a6caa3167673bcbaba21",
    27: "162d2fc3f671af8508eb28471dd779e1f5cde509fac255b5b79a6f36a8455e32",
    28: "67171f90c3c62c8a70447b3c7f01a1eec9f7ea3dd51e35f0c9dccaa6379dbec0",
    29: "f13375d7315d702c867596265c8f55f0c3ff991f102d80612fc208444ba38814",
    30: "d3f26c192f7d520ac8a525babc5b14a714bbfc4c2765515b593b9058ff934ac7",
}


@pytest.mark.parametrize("n", sorted(R_MINUS_SHA256))
def test_r_minus_cold_matches_pinned_hash(n):
    reset_polynomial_tables()
    coeffs = r_minus(n).polynomial.coeffs
    digest = hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()
    assert digest == R_MINUS_SHA256[n]


def _scan_winners(rows, modulus):
    """Ascending bit masks v with rows[0] plus the rows[1 + l] of the set
    bits l of v congruent to 0 mod modulus, by trying all of them."""
    base_row, term_rows = rows[0], rows[1:]
    winners = []
    for v in range(1 << len(term_rows)):
        chosen = [term_rows[l] for l in range(len(term_rows)) if (v >> l) & 1]
        if all((base_row[i] + sum(row[i] for row in chosen)) % modulus == 0
               for i in range(len(base_row))):
            winners.append(v)
    return winners


def test_solver_matches_scan_on_every_r_minus_search(monkeypatch):
    # the search of every rung n <= 28 and its three confirming (k, m)
    # searches, each solved over GF(2) and scanned mask by mask; r_minus
    # alone makes one search per rung
    reset_polynomial_tables()
    searches = []
    search = polynomials._search_winners

    def recorded(base_vec, term_vecs):
        winners = search(base_vec, term_vecs)
        searches.append((base_vec, term_vecs, winners))
        return winners

    monkeypatch.setattr(polynomials, "_search_winners", recorded)
    for n in range(29):
        r_minus(n)
    assert len(searches) == 29
    for n in range(29):
        polynomials._confirm_r_minus(n)
    reset_polynomial_tables()
    assert len(searches) == 4 * 29
    for base_vec, term_vecs, winners in searches:
        rows, modulus = ring._residue_images([base_vec, *term_vecs])
        # every row is 0 mod M/2, so the solver answered
        assert all(x in (0, modulus // 2) for row in rows for x in row)
        assert _scan_winners(rows, modulus) == winners
        assert len(winners) == 1


def test_search_rejects_rows_that_are_not_half_the_modulus(monkeypatch):
    # full windows at N = 8 over den = 1, so M = 4 and the rows are the
    # entries; the entries 1 and 3 are not 0 mod 2, so the test is not a
    # system over GF(2), although it has winners
    calls = []
    solve = polynomials._solve_winners

    def spy(*args):
        calls.append(args)
        return solve(*args)
    monkeypatch.setattr(polynomials, "_solve_winners", spy)

    def vec(first):
        return ring._Window(8, 1, (first,) + (0,) * 7, (), 1)

    vecs = [vec(1), vec(3), vec(2), vec(0)]
    assert _scan_winners(*ring._residue_images(vecs)) == [0b001, 0b101]
    with pytest.raises(ArithmeticError, match="not 0 mod 2"):
        polynomials._search_winners(vecs[0], vecs[1:])
    assert calls == []
    assert polynomials._search_winners(vec(2), [vec(2), vec(0)]) == [1, 3]
    assert len(calls) == 1


def test_solve_winners_matches_brute_force():
    rng = random.Random(23)
    nullities = set()
    for _ in range(400):
        width = rng.randrange(1, 7)
        terms = [rng.getrandbits(width) for _ in range(rng.randrange(0, 7))]
        if terms and rng.randrange(3) == 0:
            terms.append(rng.choice(terms))
        base = rng.getrandbits(width)
        want = []
        for v in range(1 << len(terms)):
            acc = 0
            for l, t in enumerate(terms):
                if v >> l & 1:
                    acc ^= t
            if acc == base:
                want.append(v)
        assert polynomials._solve_winners(base, terms) == want
        nullities.add(len(want).bit_length())
    # no solution, exactly one, and several
    assert {0, 1, 2, 3} <= nullities


def _set_bits(n):
    return {l for l, bit in r_minus(n).chosen_bits.items() if bit}


def test_r_minus_bits_follow_the_two_adic_rule():
    # an observation, not a theorem: for n = 2^m + r (0 <= r < 2^m) and
    # n0 = 2^(bit_length r) + r, the least rung with that r, the set bits
    # of r^-_n are those of r^-_n0 and r, cut to [0, floor(n/2)); it shares
    # no code with the search
    checked = []
    failed = []
    for n in range(1, 41):
        r = n - (1 << (n.bit_length() - 1))
        n0 = (1 << r.bit_length()) + r
        if n0 == n:
            continue
        want = (_set_bits(n0) | {r}) & set(range(n // 2))
        checked.append(n)
        if _set_bits(n) != want:
            failed.append(n)
    assert not failed, f"the bit rule first fails at n = {failed[0]}"
    assert len(checked) == 24


def test_A_equals_B_past_the_acceptance_ranges():
    # d = 61 needs r^-_n up to n = 29
    report = verify_A_equals_B(16, 1, 61, budget=1 << 500)
    assert report.claimed.ambient_rank == 30
    assert report.passed


def test_r_plus_frozen_table():
    assert r_plus(0) == ONE
    assert r_plus(1) == X + 2 * ONE
    assert r_plus(2) == IntPolynomial((8, 1, 1))
    for n in range(6):
        assert r_plus(n) == beta(r_minus(n).polynomial)


def test_reset_clears_r_plus():
    r_plus(2)
    reset_polynomial_tables()
    assert r_plus.cache_info().currsize == 0


def test_membership_A_validation():
    with pytest.raises(ValueError):
        membership_A(X ** 3, 2, 1, 7)
    with pytest.raises(ValueError):
        membership_A(ONE, 2, 1, 7, m=3)
    with pytest.raises(ValueError):
        membership_A(ONE, 2, 1, 8, m=1)
    with pytest.raises(ValueError):
        membership_A(ONE, 2, 1, 2)
    # True == 1 as a value and as a cache key, but a bool is no exponent
    for m in (True, False, 1.0):
        with pytest.raises(ValueError):
            membership_A((1,), 3, 1, 7, m=m)
    with pytest.raises(ValueError):
        membership_A(ONE, True, 1, 7)
    with pytest.raises(ValueError):
        membership_A(ONE, 2, True, 7)


def test_membership_A_scaling_consequence():
    # 2^K q is a member for every q since the ambient group has exponent 2^K
    rng = random.Random(21)
    for d in (5, 6, 7):
        c = (d - 1) // 2
        for K in (1, 2, 3):
            for _ in range(5):
                q = IntPolynomial(
                    tuple(rng.randrange(-5, 6) for _ in range(c))
                )
                assert membership_A((1 << K) * q, K, 1, d)


def test_lattice_descriptor_validation():
    with pytest.raises(ValueError):
        LatticeDescriptor(2, (ONE, ONE), (0, 0), 0)
    with pytest.raises(ValueError):
        LatticeDescriptor(2, (ONE, 3 * X), (0, 0), 0)
    LatticeDescriptor(2, (ONE, 2 * X), (0, 1), 1)


def test_b_basis_exponents():
    assert b_basis(4, 7).scaling_exponents == (2, 0, 0)
    assert b_basis(6, 9).scaling_exponents == (4, 2, 0, 0)
    assert b_basis(1, 7).scaling_exponents == (0, 0, 0)
    assert b_basis(3, 6).scaling_exponents == (1, 0)
    assert b_basis(4, 7).index_exponent == 2
    with pytest.raises(ValueError):
        b_basis(2, 4)


def test_brute_force_A_budget_gate():
    with pytest.raises(BudgetExceededError):
        brute_force_A(4, 1, 9, budget=100)


def test_budget_gate_past_the_int_to_str_limit():
    # (2^500)^30 has about 4500 decimal digits, over Python's default
    # int-to-str limit of 4300, so the count is named as a power of two
    for call in (lambda: kernel_oracle(61, 500),
                 lambda: brute_force_A(500, 1, 61),
                 lambda: verify_A_equals_B(500, 1, 61)):
        with pytest.raises(BudgetExceededError, match=r"of 2\^15000 tuples"):
            call()
    # the gate is 2^(K c) > budget: a budget of exactly 2^(K c) passes
    polynomials._check_budget(3, 2, 64, "A")
    with pytest.raises(BudgetExceededError):
        polynomials._check_budget(3, 2, 63, "A")


def test_a_budget_past_the_int_to_str_limit_is_named_by_its_length():
    # 2^14999 has about 4516 decimal digits
    with pytest.raises(BudgetExceededError,
                       match=r"over a budget of 15000 bits$"):
        kernel_oracle(61, 500, budget=1 << 14999)
    # a budget that decimal can show is written out in decimal
    with pytest.raises(BudgetExceededError,
                       match=r"over the budget of 18446744073709551616$"):
        polynomials._check_budget(65, 1, 1 << 64, "A")
    with pytest.raises(BudgetExceededError,
                       match=rf"over the budget of {(1 << 9999) - 1}$"):
        polynomials._check_budget(10000, 1, (1 << 9999) - 1, "A")


def test_verify_A_equals_B_checks_the_budget_before_the_r_minus_ladder():
    reset_polynomial_tables()
    with pytest.raises(BudgetExceededError):
        verify_A_equals_B(500, 1, 61)
    assert not polynomials._r_minus_table


def test_brute_force_A_properties():
    for K in (1, 2, 3):
        for d in (5, 6, 7):
            lattice = brute_force_A(K, 1, d)
            c = (d - 1) // 2
            assert lattice.ambient_rank == c
            # every basis row is itself a member
            for p in lattice.basis:
                assert membership_A(p, K, 1, d)
            assert 0 <= lattice.index_exponent <= K * c


def test_verify_A_equals_B_reports():
    report = verify_A_equals_B(3, 3, 7)
    assert report.passed
    assert report.index_equal and report.exponents_equal
    assert report.basis_membership and report.basis_in_oracle
    assert report.oracle_in_claimed
    assert report.claimed.scaling_exponents == (1, 0, 0)


def test_verify_A_equals_B_evidence_holds_the_basis_polynomials():
    # each row pairs the basis object itself with its verdict
    report = verify_A_equals_B(3, 3, 7)
    claimed, oracle = report.claimed.basis, report.oracle.basis
    for rows, basis in ((report.basis_membership, claimed),
                        (report.basis_in_oracle, claimed),
                        (report.oracle_in_claimed, oracle)):
        assert len(rows) == len(basis)
        assert all(p is q for (p, _), q in zip(rows, basis))
    assert [str(p) for p, _ in report.basis_membership] == [
        str(p) for p in claimed]


def test_verify_A_equals_B_names_each_row_that_does_not_reduce(monkeypatch):
    # a claimed basis whose degree-1 row is twice the oracle's spans a
    # proper sublattice: all of it reduces into the oracle, but the
    # oracle's degree-1 row does not reduce into it
    oracle = brute_force_A(4, 1, 7)
    assert [p.coeffs for p in oracle.basis] == [(4,), (1, 1), (3, 0, 1)]
    e0, e1, e2 = oracle.scaling_exponents
    claimed = LatticeDescriptor(
        3, (oracle.basis[0], 2 * oracle.basis[1], oracle.basis[2]),
        (e0, e1 + 1, e2), oracle.index_exponent + 1)
    monkeypatch.setattr(polynomials, "b_basis", lambda K, d: claimed)
    report = verify_A_equals_B(4, 1, 7)
    assert [ok for _, ok in report.basis_in_oracle] == [True, True, True]
    assert [ok for _, ok in report.oracle_in_claimed] == [True, False, True]
    assert not report.passed


def test_smith_normal_form_against_sympy():
    # sympy's Smith form over Z is the reference: a nonzero diagonal entry
    # d gives the factor Z/2^(mu - min(v_2(d), mu)) over Z/2^mu
    def v2(x):
        return (x & -x).bit_length() - 1

    assert _smith_normal_form([], 3) == []
    rng = random.Random(22)
    for trial in range(120):
        mu = trial % 8 + 1
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 6)
        bound = 1 << (mu + 6)
        mat = [
            [rng.randrange(-bound, bound + 1) << rng.randrange(mu + 2)
             for _ in range(cols)]
            if rng.randrange(4) else [0] * cols
            for _ in range(rows)
        ]
        want = smith_normal_form(sympy.Matrix(mat))
        diag = [abs(int(want[i, i])) for i in range(min(rows, cols))]
        expected = sorted(mu - min(v2(x), mu) for x in diag if x)
        assert _smith_normal_form(mat, mu) == [e for e in expected if e]


def test_shape_remark_report():
    for k in (1, 3):
        for n in range(13):
            report = shape_remark_report(n, k)
            assert report.k == k
            assert report.generators_in_set
            assert report.expected_index_exponent == (n + 1) ** 2
            assert report.observed_index_exponent == (n + 1) ** 2
            assert report.claim_holds
    with pytest.raises(ValueError):
        shape_remark_report(-1)
