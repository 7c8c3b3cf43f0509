"""The obstruction lattice computed from its definition versus the basis.

brute_force_A reads the lattice A off a 2-adic elimination of the
linearized membership test and returns it in Hermite form; nothing is
enumerated, but it is still budget-gated on the (2^K)^c tuples of the
ambient group.

Run as: python3 demos/lattice_check.py
"""

from lensring import b_basis, brute_force_A, verify_A_equals_B


def main():
    print("For each degree d the coefficient vectors t with vanishing")
    print("obstruction form a lattice A inside (Z_{2^K})^c, c = (d-1)/2.")
    print("The claimed basis B scales r^-_n (odd d) or r^+_n (even d) by")
    print("2^max(K-2n-2, 0).")
    print()

    for K, k, d in [(2, 1, 5), (3, 1, 7), (4, 3, 7), (4, 5, 9), (3, 1, 8)]:
        lattice = brute_force_A(K, k, d)
        claimed = b_basis(K, d)
        report = verify_A_equals_B(K, k, d)
        print(f"K={K}, k={k}, d={d}:")
        print(f"  computed index 2^{lattice.index_exponent},"
              f" claimed 2^{claimed.index_exponent},"
              f" scalings {claimed.scaling_exponents}")
        for p in claimed.basis:
            print(f"    basis row: {p}")
        print(f"  lattices equal: {report.passed}")
        print()

    print("The comparison checks three inclusions: the claimed rows are")
    print("members, they reduce to zero against the computed Hermite")
    print("basis, and the computed rows reduce against the claimed one.")


if __name__ == "__main__":
    main()
