"""The four workloads: inputs from a seed, jobs that check themselves, rungs.

Every job calls lensring through module attributes resolved at call time
(`ring.project`, not a name imported once), so the traced run sees the same
calls.  A check compares with `oracle`, with sha256 hashes pinned in
pins.json from the outputs at commit df54a23, with a closed form (t_bar
orders, index exponents, w(f^2 - 1)), or reads the certificate a result
carries (LatticeComparisonReport.passed); it never calls the function it
checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from lensring import cli, polynomials, ring, structure, valuation

import oracle

PINS = json.loads((Path(__file__).parent / "pins.json").read_text())


@dataclass
class Job:
    """One timed call into one lensring module, with its exact check.

    `check` receives the call's result, or the exception when the call
    raised one listed in `raises`.  `cold` jobs run after clear_caches().
    """

    kind: str
    layer: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    cold: bool = False
    raises: tuple = ()


@dataclass
class Workload:
    name: str
    jobs: Callable[[int], list[Job]]
    rung: Callable[[int, int], tuple[Callable[[], None], Job]]
    rungs: tuple[int, ...]
    cap_s: float
    input_mix: dict[str, float]


def clear_caches() -> None:
    """Every module-level cache lensring keeps, as a fresh process has it.

    reset_polynomial_tables() alone leaves the functools cache of r_plus
    warm, so that cache is cleared here as well.
    """
    polynomials.reset_polynomial_tables()
    for fn in (polynomials.r_plus, polynomials.p_k, polynomials.q_n,
               valuation.x_polynomial, valuation._one_minus_chi_valuations):
        fn.cache_clear()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# tower: element arithmetic at K = 8, invert at K = 5
# ---------------------------------------------------------------------------

TOWER_K = 8
TOWER_INVERT_K = 5
TOWER_INTEGRAL = 4
# exponents j of (1 - chi)^j in the criterion inputs 4 h (1 - chi)^j; at
# j = 2^(K-1) every level clears the bound, smaller j fail at some level
TOWER_CRITERION_J = (0, 16, 32, 64, 96, 112, 120, 124, 127, 128)


def _random_integral(rng: random.Random, K: int):
    return ring.make_element(
        K, [rng.randrange(-8, 9) for _ in range((1 << K) - 1)])


# The element pool holds TOWER_INTEGRAL integral elements, one element
# scaled by 2^-a per TOWER_SCALES entry and one f-family product per
# TOWER_FAMILY entry (two factors and a 2-power denominator 2^a).  The seed
# draws the coefficients; the shape of each input is fixed per position, so
# the work per pass does not swing with the seed.
TOWER_SCALES = (1, 4, 8)
TOWER_FAMILY = (
    (("f", 1), ("f_k3", 1), 16),
    (("f'_5", 2), ("f", 1), 28),
    (("f_k3", 2), ("f'_5", 1), 40),
)


def _family_factor(K: int, name: str):
    if name == "f":
        return ring.element_f(K)
    if name == "f_k3":
        return ring.element_f_k(K, 3)
    return ring.element_f_prime(K, 5)


def _tower_pool(rng: random.Random, K: int) -> list:
    pool = [_random_integral(rng, K) for _ in range(TOWER_INTEGRAL)]
    pool += [_random_integral(rng, K) * Fraction(1, 1 << a)
             for a in TOWER_SCALES]
    for (f1, e1), (f2, e2), a in TOWER_FAMILY:
        factor = _family_factor(K, f1) ** e1 * _family_factor(K, f2) ** e2
        pool.append(factor * _random_integral(rng, K) * Fraction(1, 1 << a))
    return pool


def _product_job(a, b, K: int) -> Job:
    wa = oracle.scaled_valuations(a.coeffs, K)
    wb = oracle.scaled_valuations(b.coeffs, K)
    want = [oracle.add_scaled(x, y) for x, y in zip(wa, wb)]
    return Job("product", "ring", lambda: a * b,
               lambda c: oracle.scaled_valuations(c.coeffs, K) == want)


def _roundtrip_job(g, K: int) -> Job:
    want_parts = [tuple(oracle.project(g.coeffs, l)) for l in range(K)]

    def call():
        parts = [ring.project(g, l) for l in range(K)]
        return parts, ring.crt_reconstruct(parts)

    def check(out):
        parts, back = out
        return back == g and [p.coeffs for p in parts] == want_parts

    return Job("roundtrip", "ring", call, check)


def _wl_job(g, K: int) -> Job:
    want = oracle.scaled_valuations(g.coeffs, K)
    return Job("w_l", "valuation",
               lambda: [valuation.w_l(g, l) for l in range(K)],
               lambda vals: [oracle.as_scaled(v) for v in vals] == want)


def _criterion_job(g, K: int) -> Job:
    proves = oracle.proves_membership(
        g.coeffs, K, oracle.scaled_valuations(g.coeffs, K))
    want = "proves-membership" if proves else "inconclusive"
    return Job("criterion", "valuation",
               lambda: valuation.criterion_sufficient(g),
               lambda verdict: verdict.value == want)


def _criterion_input(rng: random.Random, K: int, j: int):
    h = _random_integral(rng, K)
    return 4 * h * ring.make_element(K, [1, -1]) ** j


def _invert_job(u, K: int) -> Job:
    zero_divisor = oracle.has_zero_level(u.coeffs, K)

    def check(out):
        if isinstance(out, ValueError):
            return zero_divisor
        return not zero_divisor and oracle.is_inverse(u.coeffs, out.coeffs, K)

    # a zero divisor raises ValueError, which the job expects
    return Job("invert", "ring", lambda: ring.invert(u), check,
               raises=(ValueError,))


def tower_jobs(seed: int) -> list[Job]:
    rng = random.Random(seed)
    K = TOWER_K
    pool = _tower_pool(rng, K)
    pool5 = _tower_pool(rng, TOWER_INVERT_K)
    n = len(pool)
    jobs = [_product_job(pool[i], pool[(i + 1 + rng.randrange(n - 1)) % n], K)
            for i in range(n)]
    jobs += [_roundtrip_job(g, K) for g in pool]
    jobs += [_wl_job(g, K) for g in pool]
    jobs += [_criterion_job(_criterion_input(rng, K, j), K)
             for j in TOWER_CRITERION_J]
    jobs += [_invert_job(u, TOWER_INVERT_K) for u in pool5]
    rng.shuffle(jobs)
    return jobs


def _tower_mix() -> dict[str, float]:
    counts = {"integral": TOWER_INTEGRAL, "scaled": len(TOWER_SCALES),
              "family": len(TOWER_FAMILY)}
    total = sum(counts.values())
    return {kind: count / total for kind, count in counts.items()}


def tower_rung(K: int, seed: int):
    """One job of each kind at level K (invert too)."""
    rng = random.Random(seed * 1000 + K)
    a = _random_integral(rng, K)
    b = _random_integral(rng, K) * Fraction(1, 1 << TOWER_SCALES[-1])
    jobs = [
        _product_job(a, b, K),
        _roundtrip_job(b, K),
        _wl_job(a, K),
        _criterion_job(_criterion_input(rng, K, 1 << (K - 1)), K),
        _invert_job(a, K),
    ]
    return (lambda: None), _combined("tower-rung", "ring", jobs)


def _combined(kind: str, layer: str, jobs: list[Job]) -> Job:
    def call():
        out = []
        for job in jobs:
            try:
                out.append(job.call())
            except job.raises as exc:
                out.append(exc)
        return out

    return Job(kind, layer, call,
               lambda outs: all(j.check(o) for j, o in zip(jobs, outs)))


# ---------------------------------------------------------------------------
# ladder: the cold r^-_n search and the tables documents
# ---------------------------------------------------------------------------

LADDER_MAX_N = 7


def ladder_jobs(seed: int) -> list[Job]:
    # the search is deterministic, so the seed changes nothing here
    signs = ("-", "+")
    pins = PINS["ladder_tables"]

    def call():
        for n in range(LADDER_MAX_N + 1):
            polynomials.r_minus(n)
        for n in range(LADDER_MAX_N + 1):
            polynomials.r_plus(n)
        return {s: cli.tables_document(LADDER_MAX_N, s) for s in signs}

    def check(docs):
        return all(sha256(docs[s]) == pins[s] for s in signs)

    return [Job("cold-ladder", "polynomials", call, check, cold=True)]


def _r_minus_pinned(n: int) -> Callable[[object], bool]:
    pin = PINS["r_minus"].get(str(n))
    return lambda record: pin is not None and sha256(
        ",".join(map(str, record.polynomial.coeffs))) == pin


def ladder_rung(n: int, seed: int):
    """r_minus(n) with every lower rung already warm."""
    def warm():
        for m in range(n):
            polynomials.r_minus(m)

    return warm, Job("r_minus", "polynomials",
                     lambda: polynomials.r_minus(n), _r_minus_pinned(n))


# ---------------------------------------------------------------------------
# certify: kernel oracle, A = B and the shape remark over a grid
# ---------------------------------------------------------------------------

CERTIFY_SHAPE_N = 5


def _kernel_job(d: int, K: int) -> Job:
    """kernel_oracle(d, K, k) for k in {1, 3}, each generator through rho."""
    c = (d - 1) // 2
    want = tuple(sorted(t.order for t in structure.t_bar(d, K)[c:]))

    def call():
        out = []
        for k in (1, 3):
            sub = structure.kernel_oracle(d, K, k)
            rhos = [structure.rho_bracket(
                structure.NormalInvariantVector(d, K, gen, (0,) * c), k)
                for gen in sub.generators]
            out.append((sub, rhos))
        return out

    def check(out):
        for sub, rhos in out:
            product = 1
            for o in sub.elementary_divisors:
                product *= o
            if (sub.elementary_divisors != want or sub.order != product
                    or not all(oracle.in_4z(r.coeffs) for r in rhos)):
                return False
        return True

    return Job("kernel", "structure", call, check)


def _a_eq_b_job(K: int, d: int) -> Job:
    return Job("a-eq-b", "polynomials",
               lambda: [polynomials.verify_A_equals_B(K, k, d)
                        for k in (1, 3, 5)],
               lambda reports: all(r.passed for r in reports))


def _shape_job(n: int) -> Job:
    return Job("shape", "polynomials",
               lambda: polynomials.shape_remark_report(n),
               lambda r: r.claim_holds and r.observed_index_exponent
               == r.expected_index_exponent == (n + 1) ** 2)


def warm_r_tables(max_n: int) -> None:
    for n in range(max_n + 1):
        polynomials.r_minus(n)
        polynomials.r_plus(n)


def certify_jobs(seed: int) -> list[Job]:
    # The grid is fixed and does not depend on the seed.  A job is one
    # (d, K) cell with every k: single points are as short as 0.1 ms, and
    # the median of such jobs moves with noise from one run to the next.
    warm_r_tables(CERTIFY_SHAPE_N)
    jobs = [_kernel_job(d, K) for d in range(5, 10) for K in range(1, 5)]
    jobs += [_a_eq_b_job(K, d) for K in range(1, 5) for d in range(5, 10)]
    jobs += [_shape_job(n) for n in range(CERTIFY_SHAPE_N + 1)]
    return jobs


def certify_rung(n: int, seed: int):
    """shape_remark_report(n) with the r^- tables warm."""
    return (lambda: warm_r_tables(n)), _shape_job(n)


# ---------------------------------------------------------------------------
# cli: in-process main(argv), every cache cleared before each invocation
# ---------------------------------------------------------------------------

CLI_FIXED = (
    ("verify", "--suite", "all"),
    ("structure-set", "--d", "9", "--K", "6"),
    ("structure-set", "--d", "9", "--K", "6", "--format", "structured"),
    ("tables", "--max-n", "6", "--sign", "-"),
    ("tables", "--max-n", "6", "--sign", "+"),
    ("best-poly", "--n", "6", "--sign", "+"),
)
# wl expressions at K = 8, level 7, where the normal form of a rational
# element costs about the same for each; the seed picks CLI_WL_PICK of them,
# enough that the median job is a wl invocation whatever the pick
CLI_WL_POOL = (
    "f^2-1", "(1-chi)^5*fk(3)", "fpk(5)^3+2*chi", "f^3-fk(3)^2",
    "2*chi^7-fk(5)*f", "(f+1)^4", "fk(3)*fk(5)*fk(7)", "fpk(3)*f^2-chi^100",
    "8*fk(7)^2+fpk(7)", "f^5*(1+chi^2)",
)
CLI_WL_PICK = 8


def cli_argvs(seed: int) -> list[tuple[str, ...]]:
    picked = random.Random(seed).sample(CLI_WL_POOL, CLI_WL_PICK)
    return list(CLI_FIXED) + [
        ("wl", "--expr", expr, "--K", str(TOWER_K), "--l", str(TOWER_K - 1))
        for expr in picked
    ]


def run_cli(argv) -> tuple[int, str]:
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _cli_job(argv) -> Job:
    pin = PINS["cli"].get(" ".join(argv))
    return Job("cli:" + argv[0], "cli", lambda: run_cli(argv),
               lambda out: pin is not None
               and [out[0], sha256(out[1])] == pin, cold=True)


def cli_jobs(seed: int) -> list[Job]:
    return [_cli_job(argv) for argv in cli_argvs(seed)]


def cli_rung(K: int, seed: int):
    """`lensring wl --expr f^2-1 --K K --l K-1`; w(f^2 - 1) = 2 - 2^(1-l)."""
    l = K - 1
    argv = ("wl", "--expr", "f^2-1", "--K", str(K), "--l", str(l))
    value = Fraction(2) - Fraction(2, 1 << l)
    b = (value - 1) * (1 << l)
    want = (
        f"schema_version = 1\nkind = valuation\nexpr = f^2-1\nK = {K}\n"
        f"l = {l}\nw = 1+{b}/2^{l}\nvalue = {value}\n"
    )
    return (lambda: None), Job("cli:wl", "cli", lambda: run_cli(argv),
                               lambda out: out == (0, want))


# Each cap, in CPU seconds, lies near the geometric middle between the time
# of the last rung that finishes at the baseline (baseline.json) and the next
# (tower: invert at K = 5 / 6, ladder: r_minus(6) / r_minus(7), certify:
# shape_remark_report(5) / (6), cli: K = 9 / 10), so that run-to-run noise
# cannot move size_limit and a several-fold speed-up can.
WORKLOADS = {
    "tower": Workload(
        "tower", tower_jobs, tower_rung, rungs=tuple(range(4, 11)), cap_s=0.5,
        input_mix=_tower_mix()),
    "ladder": Workload(
        "ladder", ladder_jobs, ladder_rung, rungs=tuple(range(4, 10)),
        cap_s=1.5, input_mix={}),
    "certify": Workload(
        "certify", certify_jobs, certify_rung, rungs=tuple(range(3, 9)),
        cap_s=5.0, input_mix={}),
    "cli": Workload(
        "cli", cli_jobs, cli_rung, rungs=tuple(range(7, 15)), cap_s=2.0,
        input_mix={}),
}
