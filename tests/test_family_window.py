"""The windowed family vectors against the N-length construction.

The oracle below builds every family vector with all N = 2^K entries: each
sparse factor is a cyclic shift-and-add over the whole vector and each
division by 1 - chi^k is one running sum along the k-cycle.  The package
stores only a short window of the same vector; the two must agree entry by
entry as canonical classes, in 4Z-membership and in the order of the image
of the residue map.
"""

import copy
import math
import random
from itertools import accumulate

import pytest

from lensring import polynomials, ring
from lensring.polynomials import q_n


def _mul_sparse(z, terms):
    n = len(z)
    out = [0] * n
    for c, s in terms:
        s %= n
        rz = z[-s:] + z[:-s] if s else z
        out = [o + c * v for o, v in zip(out, rz)]
    return out


def _binom_terms(p, sign):
    return [(math.comb(p, j) * sign ** j, j) for j in range(p + 1)]


def _div_geom(z, den, k, n):
    total = sum(z)
    if total % n:
        z = [v * n for v in z]
        den *= n
        total *= n
    z = [v - total // n for v in z]
    if k == 1:
        return list(accumulate(z)), den
    y = [0] * n
    acc = 0
    idx = 0
    for _ in range(n):
        acc += z[idx]
        y[idx] = acc
        idx = (idx + k) % n
    return y, den


def _finish(z, net, k, n):
    if net > 0:
        z = _mul_sparse(z, _binom_terms(net, -1))
    z, den = _div_geom(z, 1, k % n, n)
    for _ in range(-net):
        z, den = _div_geom(z, den, 1, n)
    return z, den


def _oracle_numerator(q, n):
    """P with q(f^2) = P(chi) / (1 - chi)^(2 deg q), all n entries."""
    deg = len(q) - 1
    p = [0] * n
    g = [0] * n
    g[0] = 1
    for j in range(deg, -1, -1):
        if j < deg:
            p = _mul_sparse(p, [(1, 0), (2, 1), (1, 2)])
            g = _mul_sparse(g, [(1, 0), (-2, 1), (1, 2)])
        p = [a + q[j] * b for a, b in zip(p, g)]
    return p


def oracle_eval_f2(q, K, k, mode, m, times):
    n = 1 << K
    deg = len(q) - 1
    p = _oracle_numerator(q, n)
    z = _mul_sparse([8 * v for v in p], [((-1) ** j, j) for j in range(k)])
    if mode == "odd":
        z = _mul_sparse(z, _binom_terms(m, 1))
        net = times + 1 - m - 2 * deg
    else:
        z = _mul_sparse(z, [(4, 1)])
        net = times - 1 - 2 * deg
    return _finish(z, net, k, n)


def oracle_family_vec(K, k, f_power, f2_minus_1, scale, q=(1,)):
    n = 1 << K
    z = [scale * v for v in _oracle_numerator(q, n)]
    z = _mul_sparse(z, [((-1) ** j, j) for j in range(k)])
    z = _mul_sparse(z, _binom_terms(f_power, 1))
    if f2_minus_1:
        z = _mul_sparse(z, [(4, 1)])
    return _finish(z, 1 - f_power - 2 * f2_minus_1 - 2 * (len(q) - 1), k, n)


def assert_window_matches(vec, z, den):
    """Equal canonical classes: (entry - last) / den agree at every index."""
    n = len(z)
    full = vec.entries(n)
    assert len(full) == n
    assert all(vec.entry(j) == full[j] for j in {0, n // 3, n - 2, n - 1})
    assert full[:len(vec.head)] == vec.head
    assert all((a - full[-1]) * den == (b - z[-1]) * vec.den
               for a, b in zip(full, z))
    if n <= 128:
        # every width from the head to all n entries (and one past n),
        # against the oracle moved onto the window's last entry and den
        want = tuple(full[-1] + (b - z[-1]) * vec.den // den for b in z)
        for width in range(len(vec.head), n + 2):
            assert vec.entries(width) == want[:width]
    in_4z = all((v - z[-1]) % (4 * den) == 0 for v in z)
    assert (not any(ring._residue_images([vec])[0][0])) == in_4z
    return in_4z


def sum_vecs(vecs, n):
    """The sum of the windows, with all n entries stored: rho[t] as it was
    formed before the unit slot rows, kept as the oracle of rho_bracket."""
    den = math.lcm(*(v.den for v in vecs)) if vecs else 1
    out = [0] * n
    for v in vecs:
        s = den // v.den
        out = [o + s * x for o, x in zip(out, v.entries(n))]
    return ring._Window(n, 1, tuple(out), (), den)


def image_order(rows, modulus):
    """log2 of the order of the subgroup the rows generate mod 2^mu.

    Over Z/2^mu a pivot of least 2-adic valuation v divides everything in
    its row and column, so it splits off one cyclic factor of order
    2^(mu - v).
    """
    mu = modulus.bit_length() - 1
    rows = [[x % modulus for x in r] for r in rows]
    exponent = 0
    while True:
        pivots = [(x & -x, i, j) for i, r in enumerate(rows)
                  for j, x in enumerate(r) if x]
        if not pivots:
            return exponent
        low, i, j = min(pivots)
        v = low.bit_length() - 1
        exponent += mu - v
        pivot = rows.pop(i)
        inv = pow(pivot[j] >> v, -1, modulus)
        rows = [[(x - c * y) % modulus for x, y in zip(r, pivot)]
                for r in rows for c in [(r[j] >> v) * inv]]


GRID_Q = [(1,), (0, 1), (0, 0, 1), q_n(3).coeffs, (5, -3, 0, 2)]


def combination_in_4z(rows, modulus, t):
    return all(sum(c * x for c, x in zip(t, col)) % modulus == 0
               for col in zip(*rows))


def oracle_rows(vecs):
    den = math.lcm(*(d for _, d in vecs))
    m = 4 * den
    return [[(v - z[-1]) * (den // d) % m for v in z] for z, d in vecs], m


def test_eval_f2_window_matches_n_length_oracle():
    rng = random.Random(6)
    # integer combinations of the GRID_Q vectors, some scaled by powers of
    # two so that members occur
    combos = [[rng.randrange(-3, 4) << rng.randrange(0, 9) for _ in GRID_Q]
              for _ in range(4)]
    verdicts = set()
    windowed = 0
    for K in range(1, 13):
        for k in (1, 3, 5, 7):
            for mode, m in [("odd", 1), ("odd", 2), ("even", 1)]:
                for times in (0, 1, 5):
                    vecs = []
                    oracles = []
                    for q in GRID_Q:
                        vec = ring._eval_f2_vec(q, K, k, mode, m, times)
                        z, den = oracle_eval_f2(q, K, k, mode, m, times)
                        verdicts.add(assert_window_matches(vec, z, den))
                        windowed += bool(vec.tails)
                        vecs.append(vec)
                        oracles.append((z, den))
                    rows, modulus = ring._residue_images(vecs)
                    full_rows, full_modulus = oracle_rows(oracles)
                    assert image_order(rows, modulus) \
                        == image_order(full_rows, full_modulus)
                    for t in combos:
                        verdict = combination_in_4z(rows, modulus, t)
                        assert verdict == combination_in_4z(
                            full_rows, full_modulus, t)
                        verdicts.add(verdict)
    # both verdicts, and both the short and the full representation, occur
    assert verdicts == {True, False}
    assert 0 < windowed < 12 * 4 * 3 * 3 * len(GRID_Q)


def test_family_vec_window_matches_n_length_oracle():
    for K in range(1, 13):
        n = 1 << K
        for k in (1, 3, 5, 7):
            vecs = []
            oracles = []
            for f_power in range(5):
                for flagged in (False, True):
                    for q in ((1,), (5, -3, 0, 2)):
                        scale = 8 * (f_power + 3 * flagged + 1)
                        vec = ring._family_vec(K, k, q, f_power=f_power,
                                               f2_minus_1=flagged,
                                               scale=scale)
                        assert vec.k == k % n
                        z, den = oracle_family_vec(K, k, f_power, flagged,
                                                   scale, q)
                        assert_window_matches(vec, z, den)
                        vecs.append(vec)
                        oracles.append((z, den))
            # the sum, as rho_bracket forms it, on the common window
            den = math.lcm(*(d for _, d in oracles))
            total = [sum(z[j] * (den // d) for z, d in oracles)
                     for j in range(n)]
            assert_window_matches(sum_vecs(vecs, n), total, den)


def test_window_steps_out_when_the_tail_outgrows_n():
    # more divisions than the numerator was built for: the head runs out
    # and the tail would need more entries than N holds, so the vector must
    # switch to all N entries
    for K in range(3, 8):
        n = 1 << K
        for k, poly in ((1, [8, 8]), (3, [8, -8, 8, 0, 4])):
            vec = ring._Window.from_numerator(poly, n).restrided(
                k).divided(13)
            assert not vec.tails
            z, den = poly + [0] * (n - len(poly)), 1
            for _ in range(13):
                z, den = _div_geom(z, den, k, n)
            assert_window_matches(vec, z, den)


def test_family_vec_folds_a_class_step_past_n():
    # k >= N: the factors 1 - chi + ... + chi^(k-1) and 1 + chi^k are built
    # folded by chi^N = 1, against the oracle's k-term cyclic sums; the
    # window is held at class step k mod N, whether or not it was divided
    # by 1 - chi first (e >= 1 when net < 0)
    count = 0
    routes = set()
    for K in range(1, 7):
        n = 1 << K
        for k in (n + 1, n + 3, 2 * n + 1, 3 * n - 1, 4 * n + 3, 9 * n + 5):
            for f_power in range(4):
                for flagged in (False, True):
                    for q in ((1,), (5, -3, 0, 2)):
                        vec = ring._family_vec(K, k, q, f_power=f_power,
                                               f2_minus_1=flagged, scale=8)
                        assert vec.k == k % n
                        z, den = oracle_family_vec(K, k, f_power, flagged, 8,
                                                   q)
                        assert_window_matches(vec, z, den)
                        net = 1 - f_power - 2 * flagged - 2 * (len(q) - 1)
                        routes.add((bool(vec.tails), net < 0))
                        count += 1
    assert count == 576
    assert routes == {(False, False), (False, True), (True, False),
                      (True, True)}


def test_restrided_keeps_or_refuses_the_class_step():
    for K, k in ((3, 1), (8, 1), (8, 3), (12, 5)):
        for q in ((1,), (5, -3, 0, 2)):
            vec = ring._eval_f2_vec(q, K, k, "odd", 1)
            assert vec.restrided(k) is vec
            for step in (1, 2, k + 1, 2 * k - 1, 3 * k + 2):
                if step % k:
                    with pytest.raises(ArithmeticError,
                                       match=f"cannot hold class step {k} "
                                             f"with step {step}"):
                        vec.restrided(step)


def test_family_windows_keep_at_most_one_head_entry():
    # with net <= 0 and no (1 - chi)^t, every division moves head entries
    # into the tail: e by 1 - chi at class step 1, then k by 1 - chi^k
    windowed = 0
    for K in range(6, 17):
        for k in (1, 3, 5, 7):
            for f_power in range(6):
                for flagged in (False, True):
                    for q in ((1,), (0, 1), q_n(3).coeffs, (5, -3, 0, 2)):
                        net = 1 - f_power - 2 * flagged - 2 * (len(q) - 1)
                        if net > 0:
                            continue
                        vec = ring._family_vec(K, k, q, f_power=f_power,
                                               f2_minus_1=flagged, scale=8)
                        if vec.tails:
                            windowed += 1
                            assert len(vec.head) <= 1, (K, k, f_power, q)
    assert windowed > 1000


def test_restride_matches_the_entries_route():
    # restrided(step) reads the new classes off the entries; every stored
    # position s + c + b*step (b < L) of its tail must hold the entry that
    # the old window gives there in closed form (`entry`, binomial dots on
    # the old Newton differences, no running sums)
    rng = random.Random(37)
    windowed = 0
    for _ in range(400):
        K = rng.randrange(4, 17)
        k = rng.choice((1, 3))
        q = [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 8))]
        q[-1] = q[-1] or 1
        vec = ring._eval_f2_vec(q, K, k, "odd", rng.choice((1, 2)),
                                rng.randrange(0, 3))
        step = k * rng.choice((2, 3, 5))
        if not vec.tails:
            continue
        out = vec.restrided(step)
        assert (out.n, out.k, out.den) == (vec.n, step, vec.den)
        if out.tails:
            windowed += 1
            s, length = len(vec.head), len(vec.tails[0])
            assert out.head == vec.head
            assert len(out.tails) == step
            assert {len(diffs) for diffs in out.tails} == {length}
            for j in range(s, s + length * step):
                assert out.entry(j) == vec.entry(j), (K, k, q, step, j)
        if K <= 10:
            assert out.entries(vec.n) == vec.entries(vec.n)
    assert windowed > 200


def _values_minus_top(row, s, k, length):
    """Undo the stored-differences layout of a residue row: per class, the
    values minus the last entry from (d0 - last, d1, d2, ...), as running
    sums from the highest difference down."""
    out = list(row[:s]) + [0] * (length * k)
    for r in range(k):
        diffs = row[s + r * length:s + (r + 1) * length]
        col = [diffs[-1]] * length
        for d in reversed(diffs[:-1]):
            col = list(accumulate(col[:-1], initial=d))
        out[s + r::k] = col
    return out


def test_residue_rows_are_the_stored_differences():
    # rows read off heads and Newton differences are the entries of the
    # common window minus the last one after one change of columns,
    # Pascal's matrix per class, the same for every vector
    from lensring.structure import _rho_slot_vec
    rng = random.Random(29)
    seen = set()
    for K in range(3, 13):
        n = 1 << K
        qs = GRID_Q + [[rng.randrange(-9, 10) for _ in range(rng.randrange(
            1, 9))] + [1] for _ in range(3)]
        sets = [[ring._eval_f2_vec(q, K, k, "odd", m) for q in qs]
                for k in (1, 3) for m in (1, 2)]
        sets += [[ring._eval_f2_vec(q, K, k, mode, 1) for q in qs]
                 for k in (3, 5) for mode in ("odd", "even")]
        # the slot windows of an odd d have heads of 0 and 1 entries
        sets += [[_rho_slot_vec(9, K, k, slot) for slot in range(4)]
                 for k in (1, 3)]
        for vecs in sets:
            rows, m = ring._residue_images(vecs)
            k = vecs[0].k
            if not all(v.tails for v in vecs):
                seen.add("all n")
                continue
            s = max(len(v.head) for v in vecs)
            length = max(len(v.tails[0]) for v in vecs)
            if s + length * k > n:
                seen.add("all n")
                continue
            seen.add("stored")
            if len({len(v.head) for v in vecs}) > 1:
                seen.add("aligned heads")
            if len({len(v.tails[0]) for v in vecs}) > 1:
                seen.add("padded tails")
            den = math.lcm(*(v.den for v in vecs))
            for v, row in zip(vecs, rows):
                assert len(row) == s + length * k
                scale = den // v.den
                top = v.entry(n - 1) * scale
                want = [(x * scale - top) % m
                        for x in v.entries(s + length * k)]
                got = _values_minus_top(row, s, k, length)
                assert [x % m for x in got] == want
    assert seen == {"all n", "stored", "aligned heads", "padded tails"}


def test_residue_rows_read_all_n_entries_when_the_common_window_does_not_fit():
    # at K = 4 each window fits on its own (head 10 and tail 2; head 0 and
    # tail 10), but their common window, the longest head plus the longest
    # tail, needs 20 of the 16 entries: the rows are then all 16 entries
    # minus the last one, on the common denominator
    K, n = 4, 16
    vecs = [ring._Window.from_numerator(
                [1, -2, 3, 0, 1, 4, -1, 2, 0, 3, 1], n).divided(1),
            ring._Window.from_numerator([3] + [0] * 8, n).divided(9)]
    assert [(len(v.head), len(v.tails[0])) for v in vecs] == [(10, 2), (0, 10)]
    rows, m = ring._residue_images(vecs)
    den = math.lcm(*(v.den for v in vecs))
    assert m == 4 * den
    for v, row in zip(vecs, rows):
        full = v.entries(n)
        scale = den // v.den
        assert row == [(x - full[-1]) * scale % m for x in full]
    # the 4Z verdict of an integer combination of the rows is that of the
    # same combination of the elements
    elements = [ring._element_from_vec(K, v) for v in vecs]
    verdicts = set()
    for t in ((1, 1), (16, 8192), (16, 16384), (64, 16384)):
        in_4z = combination_in_4z(rows, m, t)
        assert in_4z == ring.is_in_4Z(
            t[0] * elements[0] + t[1] * elements[1]), t
        verdicts.add(in_4z)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# the unit windows: membership_A and rho_bracket as integer combinations of
# windows built once, against the direct evaluation of each input
# ---------------------------------------------------------------------------

def _lattice_cells():
    for d in range(5, 14):
        for m in ((1, 2) if d % 2 else (None,)):
            yield d, m


def test_membership_A_matches_direct_evaluation():
    rng = random.Random(41)
    verdicts = set()
    for d, m in _lattice_cells():
        c = (d - 1) // 2
        mode = "odd" if d % 2 else "even"
        for K in range(1, 11):
            for k in (1, 3, 5, 7):
                for deg in range(c):
                    q = [rng.randrange(-9, 10) for _ in range(deg + 1)]
                    q[-1] = q[-1] or 1
                    for shift in (0, rng.randrange(1, K + 1)):
                        # scaling by 2^shift makes members of most q
                        scaled = tuple(x << shift for x in q)
                        vec = ring._eval_f2_vec(scaled, K, k, mode, m or 1)
                        want = not any(ring._residue_images([vec])[0][0])
                        got = polynomials.membership_A(scaled, K, k, d, m)
                        assert got == want, (scaled, K, k, d, m)
                        verdicts.add(got)
    assert verdicts == {True, False}


def test_rho_bracket_matches_fresh_slot_windows():
    from lensring.structure import (NormalInvariantVector, _rho_slot_vec,
                                    rho_bracket)
    rng = random.Random(42)
    for d in range(5, 14):
        c = (d - 1) // 2
        for K in range(1, 11):
            for k in (1, 3, 5, 7):
                for _ in range(2):
                    t4 = tuple(rng.choice((0, rng.randrange(1 << K)))
                               for _ in range(c))
                    vecs = [_rho_slot_vec(d, K, k, slot, 8 * coeff)
                            for slot, coeff in enumerate(t4) if coeff]
                    want = ring._element_from_vec(K, sum_vecs(vecs, 1 << K))
                    t = NormalInvariantVector(d, K, t4, (0,) * c)
                    assert rho_bracket(t, k) == want, (d, K, k, t4)


def _exercise_unit_windows():
    """Every route that reads the unit windows, with its results."""
    from lensring.structure import (NormalInvariantVector, kernel_oracle,
                                    rho_bracket)
    out = []
    for d in (5, 6, 9):
        c = (d - 1) // 2
        for K in (1, 3, 5):
            out.append(polynomials.brute_force_A(K, 3, d))
            out.append(polynomials.verify_A_equals_B(K, 3, d).passed)
            out.append(kernel_oracle(d, K, 3))
            for row in out[-1].generators + ((1,) * c,):
                t = NormalInvariantVector(d, K, row, (0,) * c)
                out.append(rho_bracket(t, 3))
                out.append(polynomials.membership_A(row, K, 3, d))
    out.append(polynomials.shape_remark_report(3, 3))
    return out


def _all_tuples(value):
    if isinstance(value, (list, dict, set)):
        return False
    if isinstance(value, tuple):
        return all(_all_tuples(v) for v in value)
    return True


def test_unit_windows_are_shared_unchanged_and_reset():
    polynomials.reset_polynomial_tables()
    assert polynomials._unit_cache == {}
    cold = _exercise_unit_windows()
    cache = polynomials._unit_cache
    kinds = {key[0] for key in cache}
    assert kinds == {"x^j", "rows", "slot", "slot rows"}
    # stored immutable, so no caller's elimination can change them ...
    assert all(_all_tuples(v) for v in cache.values())
    snapshot = {key: copy.deepcopy(v) for key, v in cache.items()}
    warm = _exercise_unit_windows()
    assert warm == cold
    assert cache == snapshot
    # ... and equal to freshly built windows and rows; the lattice and the
    # kernel oracle both read their rows from the cache
    from lensring.structure import _rho_slot_vec

    def fresh(kind, params, j):
        if kind == "x^j":
            K, k, mode, m = params
            return ring._eval_f2_vec((0,) * j + (1,), K, k, mode, m)
        d, K, k = params
        return _rho_slot_vec(d, K, k, j, 8)
    row_kinds = set()
    for key, value in cache.items():
        if key[0] in ("x^j", "slot"):
            assert value == fresh(key[0], key[1:-1], key[-1])
        elif key[0] == "rows":
            kind, params, count = key[1], key[2:-1], key[-1]
            rows, modulus = ring._residue_images(
                [fresh(kind, params, j) for j in range(count)])
            assert value == (tuple(map(tuple, rows)), modulus)
            row_kinds.add(kind)
    assert row_kinds == {"x^j", "slot"}
    polynomials.reset_polynomial_tables()
    assert polynomials._unit_cache == {}
    assert _exercise_unit_windows() == cold
