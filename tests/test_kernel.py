"""The kernel of a residue map, read off a 2-adic elimination, against a walk.

The oracle below walks every t in (Z_{2^K})^c, keeps those with
sum_j t_j mats[j] = 0 mod 2^mu, and inserts each member into an echelon
basis.  The package reads the same kernel off an elimination of the rows
[mats[j] | e_j] and returns it in Hermite form; the two must have the same
number of members and span the same subgroup.  The kernel's elementary
divisors, read off the Smith form of the image, are checked against a
Smith form of the kernel's own generators.
"""

import random
from itertools import product
from math import prod

import pytest

from lensring import brute_force_A, kernel_oracle, membership_A, ring
from lensring import polynomials
from lensring.polynomials import (
    _hermite_form,
    _residue_kernel,
    _smith_normal_form,
    _v2,
)
from lensring.structure import NormalInvariantVector, _rho_slot_vec, rho_bracket
from lensring.ring import is_in_4Z


def _echelon_insert(rows, vec, K):
    """Insert vec into an echelon basis over Z_{2^K} (pivot = highest nonzero
    index, pivot entry a power of two, zeros above it)."""
    mod = 1 << K
    v = [x % mod for x in vec]
    while True:
        lead = None
        for i in range(len(v) - 1, -1, -1):
            if v[i]:
                lead = i
                break
        if lead is None:
            return
        s = _v2(v[lead])
        if lead not in rows:
            inv = pow(v[lead] >> s, -1, mod)
            rows[lead] = [(x * inv) % mod for x in v]
            return
        r = rows[lead]
        sr = _v2(r[lead])
        if s >= sr:
            q = v[lead] >> sr
            v = [(x - q * y) % mod for x, y in zip(v, r)]
        else:
            inv = pow(v[lead] >> s, -1, mod)
            rows[lead] = [(x * inv) % mod for x in v]
            v = r


def _echelon_reduces_to_zero(rows, vec, K):
    """Whether vec reduces to zero against an echelon basis over Z_{2^K}
    (rows by the highest nonzero index of each, whose entry there is 2^e),
    clearing the highest nonzero entry of vec until none is left."""
    mod = 1 << K
    v = [x % mod for x in vec]
    while True:
        lead = None
        for i in range(len(v) - 1, -1, -1):
            if v[i]:
                lead = i
                break
        if lead is None:
            return True
        if lead not in rows:
            return False
        r = rows[lead]
        sr = _v2(r[lead])
        if _v2(v[lead]) < sr:
            return False
        v = [(x - (v[lead] >> sr) * y) % mod for x, y in zip(v, r)]


def _walk_kernel(mats, modulus, K):
    """Member count and echelon basis of {t : sum_j t_j mats[j] = 0 mod
    modulus}, by walking all (2^K)^c tuples."""
    c = len(mats)
    width = len(mats[0])
    count = 0
    rows = {}
    for t in product(range(1 << K), repeat=c):
        if all(sum(t[j] * mats[j][i] for j in range(c)) % modulus == 0
               for i in range(width)):
            count += 1
            _echelon_insert(rows, t, K)
    return count, rows


def _order(rows, K):
    return 1 << sum(K - _v2(row[lead]) for lead, row in rows.items())


def _same_span(a, b, K):
    return (all(_echelon_reduces_to_zero(a, r, K) for r in b.values())
            and all(_echelon_reduces_to_zero(b, r, K) for r in a.values()))


def _assert_matches_walk(mats, modulus, K):
    got = _residue_kernel(mats, modulus, K)
    count, walked = _walk_kernel(mats, modulus, K)
    assert _order(got, K) == count
    assert _same_span(got, walked, K)
    return got


def _cell_images(d, K, k):
    """Residue images of A (monomials x^j) and of rho (t4 slots) at one cell."""
    c = (d - 1) // 2
    mode = "odd" if d % 2 else "even"
    a_vecs = [ring._eval_f2_vec((0,) * j + (1,), K, k, mode, 1)
              for j in range(c)]
    rho_vecs = [_rho_slot_vec(d, K, k, slot, 8) for slot in range(c)]
    return ring._residue_images(a_vecs), ring._residue_images(rho_vecs)


CELLS = [(d, K, k) for d in range(5, 10) for K in range(1, 5)
         for k in (1, 3, 5)]


@pytest.mark.parametrize("d", range(5, 10))
def test_kernel_matches_walk_on_lattice_cells(d):
    for _, K, k in (cell for cell in CELLS if cell[0] == d):
        for mats, modulus in _cell_images(d, K, k):
            _assert_matches_walk(mats, modulus, K)


def _random_map(rng, K, mu, c, width):
    # entries are multiples of 2^(mu - K) so that 2^K mats[j] = 0 mod 2^mu
    step = 1 << max(mu - K, 0)
    mats = [[rng.randrange(1 << mu) // step * step for _ in range(width)]
            for _ in range(c)]
    for row in mats:
        if rng.randrange(5) == 0:
            row[:] = [0] * width
        elif rng.randrange(3) == 0:
            row[:] = [x << rng.randrange(mu + 1) for x in row]
    return mats


def test_kernel_matches_walk_on_random_maps():
    rng = random.Random(9)
    seen = set()
    for trial in range(360):
        K = rng.randrange(1, 5)
        c = rng.randrange(1, 4) if K <= 3 else rng.randrange(1, 3)
        mu = max(1, K + trial % 5 - 2)
        mats = _random_map(rng, K, mu, c, rng.randrange(1, 5))
        _assert_matches_walk(mats, 1 << mu, K)
        seen.add((mu > K) - (mu < K))
        seen.add("zero row" if any(not any(r) for r in mats) else "full")
    assert seen == {-1, 0, 1, "zero row", "full"}


def _assert_hermite_reduced(rows, K):
    for lead, row in rows.items():
        e = _v2(row[lead])
        assert row[lead] == 1 << e and e < K
        assert all(x == 0 for x in row[lead + 1:])
        assert all(0 <= x < 1 << K for x in row)
        for p in range(lead):
            if p in rows:
                assert row[p] < 1 << _v2(rows[p][p])


def test_hermite_form_is_canonical():
    rng = random.Random(31)
    for d, K, k in CELLS:
        for mats, modulus in _cell_images(d, K, k):
            rows = _residue_kernel(mats, modulus, K)
            _assert_hermite_reduced(rows, K)
            c = len(mats)
            gens = [list(r) for r in rows.values()]
            for _ in range(3):
                picked = rng.sample(gens, rng.randrange(1, len(rows) + 1))
                coeffs = [rng.randrange(-9, 10) for _ in picked]
                gens.append([sum(a * g[i] for a, g in zip(coeffs, picked))
                             for i in range(c)])
            gens.append([(1 << K) * rng.randrange(1, 4)] * c)
            rng.shuffle(gens)
            assert _hermite_form(gens, K) == rows


def test_pinned_kernel_generators():
    sub = kernel_oracle(9, 4, 1)
    assert sub.generators == ((2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0),
                              (1, 0, 0, 2))
    for row in sub.generators:
        assert is_in_4Z(rho_bracket(NormalInvariantVector(9, 4, row,
                                                          (0,) * 4)))
    basis = brute_force_A(4, 1, 9).basis
    assert [str(p) for p in basis] == ["4", "x + 1", "x^2 + 3", "x^3 + 1"]
    assert all(membership_A(p, 4, 1, 9) for p in basis)


def _by_lead(generators):
    """Hermite rows keyed by their highest nonzero index."""
    return {max(i for i, x in enumerate(g) if x): list(g) for g in generators}


def test_kernel_divisors_match_smith_form_of_generators():
    # the divisors used to be a Smith form of the kernel's generators over
    # Z/2^K; that route stays here as the oracle of the image-derived ones
    for d in range(5, 26):
        for K in range(1, 11):
            for k in (1, 3, 5):
                sub = kernel_oracle(d, K, k, budget=1 << 4000)
                want = tuple(1 << e
                             for e in _smith_normal_form(sub.generators, K))
                assert sub.elementary_divisors == want, (d, K, k)
                assert sub.order == prod(want)
                assert sub.order == _order(_by_lead(sub.generators), K)
                a = brute_force_A(K, k, d, budget=1 << 4000)
                assert a.index_exponent == sum(a.scaling_exponents)


def test_certificate_catches_a_dropped_kernel_row(monkeypatch):
    real = polynomials._residue_kernel

    def corrupted(mats, modulus, K):
        rows = real(mats, modulus, K)
        del rows[max(rows)]
        return rows
    monkeypatch.setattr(polynomials, "_residue_kernel", corrupted)
    with pytest.raises(ArithmeticError, match="residue image order"):
        kernel_oracle(9, 4, 1)
    with pytest.raises(ArithmeticError, match="residue image order"):
        brute_force_A(4, 1, 9)


# --- the elimination loops as they stood before the shared step ------------

def _eliminate_oracle(rows, cols, mu):
    """Column-by-column elimination over Z/2^mu with its own pivot step:
    the row of least v_2 (first such row on ties), scaled to 2^v, clears
    the column, and 2^(mu - v) times it goes back when nonzero."""
    mod = 1 << mu
    pivots = {}
    for j in cols:
        live = [(_v2(row[j]), i) for i, row in enumerate(rows) if row[j]]
        if not live:
            continue
        v, i = min(live)
        pivot = rows.pop(i)
        inv = pow(pivot[j] >> v, -1, mod)
        pivot = [x * inv % mod for x in pivot]
        for row in rows:
            if row[j]:
                q = row[j] >> v
                row[:] = [(x - q * y) % mod for x, y in zip(row, pivot)]
        back = [(x << (mu - v)) % mod for x in pivot]
        if any(back):
            rows.append(back)
        pivots[j] = pivot
    return pivots


def _smith_oracle(matrix, mu):
    """Exponents of the cyclic factors of the row span in (Z/2^mu)^cols,
    pivoting on the first entry of least v_2 of the whole matrix."""
    mod = 1 << mu
    rows = [[x % mod for x in row] for row in matrix]
    exps = []
    while True:
        pivots = [(_v2(x), i, j) for i, row in enumerate(rows)
                  for j, x in enumerate(row) if x]
        if not pivots:
            return sorted(exps)
        v, i, j = min(pivots)
        exps.append(mu - v)
        pivot = rows.pop(i)
        inv = pow(pivot[j] >> v, -1, mod)
        for row in rows:
            q = (row[j] >> v) * inv
            row[:] = [(x - q * y) % mod for x, y in zip(row, pivot)]


def _reduce_oracle(pivots, vec, K):
    """Top-down reduction of vec over Z_{2^K}; vec must be at least as long
    as every row."""
    mod = 1 << K
    v = [x % mod for x in vec]
    multipliers = {}
    for p in sorted(pivots, reverse=True):
        row = pivots[p]
        q = v[p] >> _v2(row[p])
        if q:
            multipliers[p] = q
            v[:len(row)] = [(x - q * y) % mod for x, y in zip(v, row)]
    return v, multipliers


def _hermite_oracle(gens, K):
    mod = 1 << K
    rows = [[x % mod for x in g] for g in gens]
    width = len(rows[0]) if rows else 0
    pivots = _eliminate_oracle(rows, range(width - 1, -1, -1), K)
    form = {}
    for lead in sorted(pivots):
        form[lead] = _reduce_oracle(form, pivots[lead], K)[0]
    return form


def _random_matrix(rng, mu, height, width, signed=False):
    """Entries of every 2-adic valuation below mu + 2, with about a quarter
    of the rows and of the columns zero."""
    lo = -(1 << mu) if signed else 0
    mat = [[rng.randrange(lo, 1 << mu) << rng.randrange(mu + 2)
            for _ in range(width)] for _ in range(height)]
    if not signed:
        mat = [[x % (1 << mu) for x in row] for row in mat]
    for j in range(width):
        if rng.randrange(4) == 0:
            for row in mat:
                row[j] = 0
    for row in mat:
        if rng.randrange(4) == 0:
            row[:] = [0] * width
    return mat


def _shapes(rng):
    """(mu, height, width) over mu 1..9: the empty matrix, matrices with no
    columns, single columns and random shapes up to 6 x 7."""
    for mu in range(1, 10):
        yield mu, 0, 0
        yield mu, rng.randrange(1, 4), 0
        for _ in range(4):
            yield mu, rng.randrange(1, 6), 1
        for _ in range(24):
            yield mu, rng.randrange(1, 7), rng.randrange(1, 8)


def test_eliminate_matches_the_loop_it_replaced():
    rng = random.Random(41)
    seen = set()
    for mu, height, width in _shapes(rng):
        mat = _random_matrix(rng, mu, height, width)
        cols = list(range(width))
        rng.shuffle(cols)
        cols = cols[:rng.randrange(width + 1)]
        got_rows, want_rows = [r[:] for r in mat], [r[:] for r in mat]
        got = polynomials._eliminate(got_rows, cols, mu)
        assert got == _eliminate_oracle(want_rows, cols, mu)
        assert got_rows == want_rows
        seen.add(len(got_rows) > height - len(got))  # a row was put back
    assert seen == {False, True}


def test_smith_form_matches_the_loop_it_replaced():
    rng = random.Random(42)
    for mu, height, width in _shapes(rng):
        mat = _random_matrix(rng, mu, height, width, signed=True)
        assert _smith_normal_form(mat, mu) == _smith_oracle(mat, mu)
    assert _smith_normal_form([], 4) == _smith_oracle([], 4) == []


def test_hermite_form_matches_the_loops_it_replaced():
    rng = random.Random(43)
    for mu, height, width in _shapes(rng):
        gens = _random_matrix(rng, mu, height, width, signed=True)
        assert _hermite_form(gens, mu) == _hermite_oracle(gens, mu)


def test_reduce_pads_short_vectors_and_keeps_long_ones():
    rng = random.Random(44)
    lengths = set()
    for trial in range(400):
        K = trial % 9 + 1
        width = rng.randrange(1, 7)
        gens = _random_matrix(rng, K, rng.randrange(1, 6), width)
        form = _hermite_form(gens, K)
        # rows cut after their pivot, as IntPolynomial.coeffs are trimmed
        pivots = {p: row[:p + 1] if rng.randrange(2) else row
                  for p, row in form.items()}
        longest = max(map(len, pivots.values()), default=0)
        vec = [rng.randrange(-(1 << K), 1 << K)
               for _ in range(rng.randrange(width + 3))]
        if pivots and rng.randrange(3) == 0:
            # a member of the span, cut to its last nonzero entry
            vec = [sum(rng.randrange(4) * row[i] if i < len(row) else 0
                       for row in pivots.values()) for i in range(longest)]
            while vec and vec[-1] % (1 << K) == 0:
                vec.pop()
        rem, mult = polynomials._reduce(pivots, vec, K)
        padded = vec + [0] * (longest - len(vec))
        assert (rem, mult) == _reduce_oracle(pivots, padded, K)
        assert len(rem) == max(len(vec), longest)
        lengths.add((len(vec) > longest) - (len(vec) < longest))
    assert lengths == {-1, 0, 1}
