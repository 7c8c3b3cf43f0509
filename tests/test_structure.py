"""Tests for normal invariants, kernels, and structure set descriptors."""

import random
from fractions import Fraction

import pytest

from lensring import (
    BudgetExceededError,
    IntPolynomial,
    NormalInvariantVector,
    TorsionSummand,
    b_basis,
    eigenspace_test,
    element_f,
    evaluate_at_f_squared,
    is_in_4Z,
    kernel_oracle,
    make_element,
    membership_A,
    polynomial_r_coordinates,
    r_coordinates,
    r_minus,
    r_plus,
    rho_bracket,
    structure_set,
    t_bar,
    t_to_polynomial,
)


def test_normal_invariant_vector_validation():
    NormalInvariantVector(7, 2, (0, 1, 3), (1, 0, 1))
    with pytest.raises(ValueError):
        NormalInvariantVector(7, 2, (0, 1), (1, 0, 1))
    with pytest.raises(ValueError):
        NormalInvariantVector(7, 2, (0, 1, 4), (1, 0, 1))
    with pytest.raises(ValueError):
        NormalInvariantVector(7, 2, (0, 1, -1), (1, 0, 1))
    with pytest.raises(ValueError):
        NormalInvariantVector(7, 2, (0, 1, 3), (1, 0, 2))
    with pytest.raises(ValueError):
        NormalInvariantVector(2, 2, (), ())


def test_normal_invariant_vector_rejects_bools_and_non_ints():
    # t2 is checked as t4 is, so r_coordinates never echoes a bool or a
    # float back as an r_{4i-2} coordinate
    for t4, t2 in (((0, 0), (True, 1.0)), ((0, 0), (1.0, 0)),
                   ((0, 0), (0, Fraction(1))), ((True, 0), (0, 0)),
                   ((0, 2.0), (0, 0))):
        with pytest.raises(ValueError, match=r"t[24]\[[01]\] must be an int"):
            NormalInvariantVector(5, 3, t4, t2)
    coords = r_coordinates(NormalInvariantVector(5, 3, (0, 0), (1, 1)))
    assert coords == {"r_2": 1, "r_6": 1, "r_4": 0, "r_8": 0}
    assert all(type(v) is int for v in coords.values())


def test_rho_bracket_known_value():
    t = NormalInvariantVector(7, 2, (0, 0, 1), (0, 0, 0))
    assert rho_bracket(t) == 8 * element_f(2)


def test_rho_bracket_eigenspace_sign():
    rng = random.Random(30)
    for d in (5, 6, 7, 8):
        c = (d - 1) // 2
        K = 3
        t4 = tuple(rng.randrange(1 << K) for _ in range(c))
        t = NormalInvariantVector(d, K, t4, (0,) * c)
        rho = rho_bracket(t)
        assert eigenspace_test(rho, "-" if d % 2 else "+")


def test_rho_bracket_additive_in_the_lift():
    rng = random.Random(31)
    for d in (5, 6, 7):
        c = (d - 1) // 2
        K = 3
        for k in (1, 3):
            t4a = tuple(rng.randrange(4) for _ in range(c))
            t4b = tuple(rng.randrange(4) for _ in range(c))
            tsum = tuple(x + y for x, y in zip(t4a, t4b))
            za = (0,) * c
            ra = rho_bracket(NormalInvariantVector(d, K, t4a, za), k)
            rb = rho_bracket(NormalInvariantVector(d, K, t4b, za), k)
            rs = rho_bracket(NormalInvariantVector(d, K, tsum, za), k)
            assert rs == ra + rb


def test_rho_bracket_matches_polynomial_evaluation():
    rng = random.Random(32)
    for d in (5, 6, 7, 8, 9):
        c = (d - 1) // 2
        for K in (1, 2, 3):
            for k in (1, 3):
                t4 = tuple(rng.randrange(1 << K) for _ in range(c))
                t = NormalInvariantVector(d, K, t4, (0,) * c)
                q = t_to_polynomial(t)
                if d % 2:
                    want = evaluate_at_f_squared(q, K, k, "odd", 1)
                else:
                    want = evaluate_at_f_squared(q, K, k, "even")
                assert rho_bracket(t, k) == want


def test_obstruction_routes_agree():
    rng = random.Random(33)
    for d in (5, 6, 7, 8, 9):
        c = (d - 1) // 2
        for K in (1, 2, 3):
            for _ in range(20):
                t4 = tuple(rng.randrange(1 << K) for _ in range(c))
                t = NormalInvariantVector(d, K, t4, (0,) * c)
                assert is_in_4Z(rho_bracket(t)) \
                    == membership_A(t_to_polynomial(t), K, 1, d)


def test_kernel_oracle_known_divisors():
    assert kernel_oracle(5, 2).elementary_divisors == (4, 4)
    assert kernel_oracle(7, 3, k=3).elementary_divisors == (4, 8, 8)
    assert kernel_oracle(5, 1).elementary_divisors == (2, 2)


def test_kernel_oracle_consistency():
    for d in (5, 6, 7):
        c = (d - 1) // 2
        for K in (1, 2, 3):
            sub = kernel_oracle(d, K)
            assert sub.ambient_rank == c
            assert sub.modulus_exponent == K
            prod = 1
            for o in sub.elementary_divisors:
                prod *= o
            assert prod == sub.order
            # every reported generator really is in the kernel
            for row in sub.generators:
                t = NormalInvariantVector(d, K, row, (0,) * c)
                assert is_in_4Z(rho_bracket(t))


def test_kernel_oracle_budget_gate():
    with pytest.raises(BudgetExceededError):
        kernel_oracle(9, 6, budget=1000)


def test_summand_and_rung_counts_are_gated_by_the_budget():
    # t_bar and structure_set build 2c summands and b_basis searches c
    # rungs; a d whose counts pass the budget is refused before any is
    # built, with kernel_oracle's default budget of 2^20
    huge = 1 << 20000
    summands = "the torsion has <int of 20000 bits> summands"
    for call, what in (
            (lambda: t_bar(huge, 3), summands),
            (lambda: structure_set(huge, 3), summands),
            (lambda: b_basis(3, huge),
             "the claimed basis has <int of 19999 bits> rungs")):
        with pytest.raises(BudgetExceededError,
                           match=f"^{what}, over the budget of 1048576$"):
            call()
    # the gate is count > budget: 2c = 6 summands and c = 3 rungs at d = 7
    assert len(t_bar(7, 3, budget=6)) == 6
    assert structure_set(7, 3, budget=6).torsion == t_bar(7, 3)
    assert len(b_basis(3, 7, budget=3).basis) == 3
    for call in (lambda: t_bar(7, 3, budget=5),
                 lambda: structure_set(7, 3, budget=5),
                 lambda: b_basis(3, 7, budget=2)):
        with pytest.raises(BudgetExceededError):
            call()
    # below d = 5 there is no torsion to count
    assert structure_set(4, 2, budget=0).torsion is None


def test_t_bar_orders():
    orders = tuple(s.order for s in t_bar(5, 3))
    assert orders == (2, 2, 4, 8)
    orders = tuple(s.order for s in t_bar(6, 4))
    assert orders == (2, 2, 4, 16)
    labels = tuple(s.label for s in t_bar(5, 3))
    assert labels == ("r_2", "r_6", "r_4", "r_8")
    with pytest.raises(ValueError):
        t_bar(4, 3)


def test_structure_set_descriptors():
    s = structure_set(5, 3)
    assert s.free_rank == 3
    assert s.torsion == t_bar(5, 3)
    s = structure_set(6, 4)
    assert s.free_rank == 8
    assert tuple(x.order for x in s.torsion) == (2, 2, 4, 16)
    assert structure_set(3, 4) == type(s)(7, None)
    assert structure_set(4, 2).torsion is None
    with pytest.raises(ValueError):
        structure_set(2, 3)


def test_structure_set_torsion_matches_kernel():
    # the cyclic orders of the r_4i summands are exactly the kernel divisors
    for d in (5, 6, 7, 8, 9):
        c = (d - 1) // 2
        for K in (1, 2, 3):
            summands = t_bar(d, K)[c:]
            assert tuple(sorted(s.order for s in summands)) \
                == kernel_oracle(d, K).elementary_divisors


def test_polynomial_r_coordinates_round_trip():
    rng = random.Random(34)
    for d in (5, 6, 7):
        for K in (1, 2, 3, 4):
            basis = b_basis(K, d)
            coords = tuple(
                rng.randrange(1 << min(K, 2 * n + 2))
                for n in range(basis.ambient_rank)
            )
            q = IntPolynomial(())
            for a, p in zip(coords, basis.basis):
                q = q + a * p
            assert polynomial_r_coordinates(q, d, K) == coords


def test_polynomial_r_coordinates_ignore_the_lift():
    rng = random.Random(35)
    for d in (5, 6, 7):
        c = (d - 1) // 2
        for K in (1, 2, 3):
            basis = b_basis(K, d)
            q = IntPolynomial(())
            for p in basis.basis:
                q = q + rng.randrange(1 << K) * p
            shifted = q + (1 << K) * IntPolynomial(
                tuple(rng.randrange(-3, 4) for _ in range(c))
            )
            assert polynomial_r_coordinates(q, d, K) \
                == polynomial_r_coordinates(shifted, d, K)


def test_polynomial_r_coordinates_rejects_a_degree_past_c():
    # d = 5 has c = 2 coordinates, so deg q must stay below 2
    with pytest.raises(ValueError, match="degree overflow: deg q = 2"):
        polynomial_r_coordinates(IntPolynomial((0, 0, 1)), 5, 3)


def _back_substitute(q, d, K):
    """Coordinates of q against the scaled r^- (odd d) or r^+ (even d)
    basis by integer back-substitution from the top degree down."""
    c = (d - 1) // 2
    basis = [r_plus(n) if d % 2 == 0 else r_minus(n).polynomial
             for n in range(c)]
    mod = 1 << K
    rem = [q.coefficient(j) for j in range(c)]
    coords = [0] * c
    for n in range(c - 1, -1, -1):
        g = rem[n] % mod
        s = max(K - 2 * n - 2, 0)
        if g % (1 << s):
            raise ArithmeticError(
                f"coefficient at degree {n} is not divisible by 2^{s};"
                " q is outside the lattice"
            )
        coords[n] = g >> s
        for j, bc in enumerate((basis[n] * (g >> s << s)).coeffs):
            rem[j] -= bc
    assert all(v % mod == 0 for v in rem)
    return tuple(coords)


def _outcome(coordinates, q, d, K):
    try:
        return coordinates(q, d, K)
    except ArithmeticError as exc:
        return str(exc)


def test_polynomial_r_coordinates_match_back_substitution():
    # lattice members, members plus 1, 2 or 3 x^j, and arbitrary q; a
    # bumped member is often rejected at degree j, which a reduction that
    # cuts its vector short at a lower pivot would lose
    rng = random.Random(36)
    rejected = set()
    for d in range(5, 16):
        c = (d - 1) // 2
        for K in range(1, 9):
            basis = b_basis(K, d)
            for _ in range(6):
                member = IntPolynomial(())
                for p in basis.basis:
                    member = member + rng.randrange(-(1 << K), 1 << K) * p
                j = rng.randrange(c)
                bumped = member + rng.randrange(1, 4) * IntPolynomial(
                    (0,) * j + (1,))
                arbitrary = IntPolynomial(tuple(
                    rng.randrange(-(1 << K + 2), 1 << K + 2)
                    for _ in range(c)))
                for q in (member, bumped, arbitrary):
                    want = _outcome(_back_substitute, q, d, K)
                    assert _outcome(polynomial_r_coordinates, q, d, K) \
                        == want
                    if isinstance(want, str):
                        degree = int(want.split()[3])
                        rejected.add("top" if degree == c - 1
                                     else "middle" if degree else "bottom")
    assert rejected == {"bottom", "middle", "top"}


def test_r_coordinates_labels_and_values():
    t = NormalInvariantVector(7, 2, (0, 0, 1), (1, 0, 1))
    coords = r_coordinates(t)
    assert list(coords) == ["r_2", "r_6", "r_10", "r_4", "r_8", "r_12"]
    assert coords["r_2"] == 1 and coords["r_6"] == 0 and coords["r_10"] == 1
    assert coords["r_4"] == 1 and coords["r_8"] == 0 and coords["r_12"] == 0


def test_r_coordinates_require_membership():
    # rho of this vector is 8 f'_1 f q_0(f^2) at K = 3, which is not in 4Z
    t = NormalInvariantVector(7, 3, (0, 0, 1), (0, 0, 0))
    assert not is_in_4Z(rho_bracket(t))
    with pytest.raises(ValueError):
        r_coordinates(t)


def test_torsion_summand_is_a_named_tuple():
    s = TorsionSummand("r_4", 4)
    assert s.label == "r_4"
    assert s.order == 4
