"""Command line interface.

Subcommands:

  structure-set --d D --K K      classification descriptor for one (d, K)
  tables --max-n N [--sign S]    the p/q/r polynomial tables as a document,
         [--K K]                 scaled at a positive level K if given
  wl --expr E --l L --K K        one valuation of a ring expression
  verify --suite NAME            re-run one book of exact checks, or all
  best-poly --n N --sign S       a single best polynomial with its bits

Every subcommand takes --format text|structured (JSON) and --out FILE;
structure-set and verify also take --budget INT, the cap they pass to the
gates they reach, and verify takes --seed INT for its random inputs.  A
subcommand refuses a flag it would not read, and names itself in the usage
line it prints (`usage: lensring wl ...`).  Each command builds one record,
which both formats render: as `key = value` lines, or as sorted-key JSON.
The command line is the whole configuration: `run` takes argparse's parsed
namespace, and its output depends on nothing but that namespace's fields
(--out, which `main` reads, names only where it goes).  So output is byte
identical for identical command lines, and nothing is timestamped, machine
dependent or read from the environment.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error,
or an --out that cannot be written (nothing else), 3 enumeration budget
exceeded, 4 internal invariant failure (an ArithmeticError: a result the
code certifies did not check out).  Each failing verify check also writes a
one-line reproducer (suite and seed, with the check name) to stderr.

Expressions use a tiny language: integer literals (ASCII digits), chi, f,
fk(k), fpk(k), binary + - *, powers ^ with a non-negative integer
exponent, unary minus (a chain of signs too), and parentheses nested at
most 100 deep.  The unicode minus and middle dot are accepted as aliases
for - and *.  `wl` reads an expression in the level-l field
Q[chi]/<1 + chi^(2^l)> only, by the rules of its valuation
(`valuation._LevelValue`): a product adds valuations, a power scales one,
a sum of two different ones takes the smaller.  Only a sum of two equal
valuations needs more: its polynomial in one atom f or fk(k), read in
closed form; its residue mod pi^T (pi = 1 - chi), read when nonzero; or
else its element, built in that field from atoms in closed form
(`ring._level_family`).  So its cost follows l and not K.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import sys
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import Callable, Sequence

from .polynomials import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    IntPolynomial,
    _confirm_r_minus,
    beta,
    beta_inv,
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
from .ring import (
    RingElement,
    _decimal_str,
    _eval_f2_vec,
    _residue_images,
    _shown,
    _validate_level,
    _validate_natural,
    _validate_projection_level,
    conjugate,
    crt_reconstruct,
    element_f,
    element_f_prime,
    is_in_4Z,
    make_element,
    project,
)
from .structure import (
    NormalInvariantVector,
    kernel_oracle,
    rho_bracket,
    structure_set,
    t_to_polynomial,
)
from .valuation import (
    CriterionVerdict,
    _LevelValue,
    _valuations,
    criterion_sufficient,
    valuation_to_text,
    w_l,
    x_polynomial,
)

__all__ = ["main", "run", "tables_document"]

SCHEMA_VERSION = 1
DEFAULT_SEED = 1729


# ---------------------------------------------------------------------------
# expression parsing
# ---------------------------------------------------------------------------

_NAMES = ("chi", "f", "fk", "fpk")
# ASCII only: str.isdigit() also holds for superscripts and other scripts'
# digits, which int() reads or rejects with its own message
_DIGITS = "0123456789"


def _tokenize(text: str) -> list[tuple[str, object]]:
    source = text.replace("−", "-").replace("·", "*")
    tokens: list[tuple[str, object]] = []
    i = 0
    while i < len(source):
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(source) and source[j] in _DIGITS:
                j += 1
            tokens.append(("int", int(source[i:j])))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(source) and source[j].isalpha():
                j += 1
            name = source[i:j]
            if name not in _NAMES:
                raise ValueError(f"unknown name {name!r} in expression")
            tokens.append(("name", name))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch))
            i += 1
            continue
        raise ValueError(f"unexpected character {ch!r} in expression")
    tokens.append(("end", None))
    return tokens


# five stack frames per open parenthesis: well inside the recursion limit
_MAX_NESTING = 100


class _ExpressionParser:
    """Recursive descent over the expression language in the field
    Q[chi]/<1 + chi^(2^level)>: its atoms are built by `_integer`, `_chi`
    and `_family`, and + - * ^ act on what they return, here
    `valuation._LevelValue`s."""

    def __init__(self, text: str, level: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.level = level

    def _peek(self) -> str:
        return self.tokens[self.pos][0]

    def _next(self) -> tuple[str, object]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str) -> object:
        tok_kind, value = self._next()
        if tok_kind != kind:
            raise ValueError(f"expected {kind!r}, found {tok_kind!r}")
        return value

    def parse(self) -> _LevelValue:
        opened = accumulate((t == "(") - (t == ")") for t, _ in self.tokens)
        if max(opened) > _MAX_NESTING:
            raise ValueError(f"parentheses nested deeper than {_MAX_NESTING}")
        value = self._sum()
        if self._peek() != "end":
            raise ValueError("trailing input after expression")
        return value

    def _sum(self) -> _LevelValue:
        acc = self._product()
        while self._peek() in ("+", "-"):
            op, _ = self._next()
            rhs = self._product()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def _product(self) -> _LevelValue:
        acc = self._unary()
        while self._peek() == "*":
            self._next()
            acc = acc * self._unary()
        return acc

    def _unary(self) -> _LevelValue:
        signs = 0
        while self._peek() == "-":
            self._next()
            signs += 1
        return -self._power() if signs % 2 else self._power()

    def _power(self) -> _LevelValue:
        base = self._atom()
        if self._peek() == "^":
            self._next()
            exponent = self._expect("int")
            return base ** exponent
        return base

    def _atom(self) -> _LevelValue:
        kind, value = self._next()
        if kind == "(":
            inner = self._sum()
            self._expect(")")
            return inner
        if kind == "int":
            return self._integer(value)
        if kind != "name":
            raise ValueError(f"unexpected token {kind!r} in expression")
        if value == "chi":
            return self._chi()
        if value == "f":
            return self._family(1, f_power=1)
        self._expect("(")
        k = self._expect("int")
        self._expect(")")
        return self._family(k, f_power=1 if value == "fk" else 0)

    def _integer(self, c: int) -> _LevelValue:
        return _LevelValue.integer(self.level, c)

    def _chi(self) -> _LevelValue:
        return _LevelValue.chi(self.level)

    def _family(self, k: int, f_power: int) -> _LevelValue:
        return _LevelValue.family(self.level, k, f_power)


# ---------------------------------------------------------------------------
# output records: one list of fields per command, rendered as text or JSON
# ---------------------------------------------------------------------------

# (text line, or None if JSON only; JSON path, or None if text only; value)
Field = tuple[str | None, tuple[str, ...] | None, object]


def _field(key: str, value, text=None, path=None) -> Field:
    """`key = text` as text (text defaults to value) and value at path
    (default (key,)) as JSON."""
    shown = _decimal_str(value if text is None else text)
    return (f"{key} = {shown}", path or (key,), value)


def _coeffs_field(key: str, path, coeffs: Sequence[int]) -> Field:
    text = ",".join(map(_decimal_str, coeffs)) if coeffs else "0"
    return _field(key, list(coeffs), text, path)


def _bits_field(key: str, path, bits: dict[int, int]) -> Field:
    text = ",".join(f"{l}:{bits[l]}" for l in sorted(bits)) or "none"
    return _field(key, {str(l): bits[l] for l in sorted(bits)}, text, path)


def _header(kind: str) -> list[Field]:
    return [_field("schema_version", SCHEMA_VERSION), _field("kind", kind)]


def _render(fields: Sequence[Field], output_format: str) -> str:
    """The text lines in order, or the JSON values nested at their paths."""
    if output_format == "text":
        lines = [text for text, _, _ in fields if text is not None]
        return "\n".join(lines) + "\n"
    doc: dict = {}
    for _, path, value in fields:
        if path is not None:
            node = doc
            for key in path[:-1]:
                node = node.setdefault(key, {})
            node[path[-1]] = value
    try:
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    except ValueError:  # an int past Python's int-to-str digit limit
        wide: list[str] = []

    def held(x):
        # every int is dumped as the string "\0<i>", then written in its
        # place by `_decimal_str`
        if type(x) is int:
            wide.append(_decimal_str(x))
            return f"\0{len(wide) - 1}"
        if isinstance(x, dict):
            return {key: held(v) for key, v in x.items()}
        return [*map(held, x)] if isinstance(x, list) else x
    text = json.dumps(held(doc), sort_keys=True, indent=2)
    for i, digits in enumerate(wide):
        text = text.replace(f'"\\u0000{i}"', digits)
    return text + "\n"


def _signed_r(sign: str) -> Callable[[int], tuple]:
    """n -> (the record of r^-_n, whose bits are shown, and r^-_n or r^+_n
    by sign), the sign checked here."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {_shown(sign)}")
    return lambda n: (r_minus(n), r_minus(n).polynomial if sign == "-"
                      else r_plus(n))


def _tables_fields(max_n: int, sign: str, K: int | None) -> list[Field]:
    signed_r = _signed_r(sign)
    _validate_natural(max_n, "max_n")
    if K is not None:
        _validate_level(K)
    fields = _header("polynomial-tables") + [
        _field("sign", sign),
        _field("max_n", max_n),
        _field("K", K, "symbolic" if K is None else None),
    ] + [(None, (table,), {}) for table in ("p", "q", "r", "scaling")]
    # each table is in the JSON even when empty (max_n = 0 has no p rows)
    for k in range(1, split_n(max_n)[0] + 1):
        fields.append(_coeffs_field(f"p[{k}]", ("p", str(k)), p_k(k).coeffs))
    for n in range(max_n + 1):
        fields.append(_coeffs_field(f"q[{n}]", ("q", str(n)), q_n(n).coeffs))
    for n in range(max_n + 1):
        record, poly = signed_r(n)
        row = ("r", str(n))
        fields += [
            _coeffs_field(f"r[{n}]", row + ("coeffs",), poly.coeffs),
            _bits_field(f"r[{n}].bits", row + ("bits",), record.chosen_bits),
        ]
    for n in range(max_n + 1):
        scaling = max(K - 2 * n - 2, 0) if K else f"max(K-{2 * n + 2},0)"
        fields.append(
            _field(f"scaling[{n}]", scaling, path=("scaling", str(n)))
        )
    return fields


def tables_document(max_n: int, sign: str, K: int | None = None) -> str:
    """The text rendering of the tables record: p, q, r and the scalings at
    a positive level K, or symbolic in K.  The structure-set provenance hash
    is taken over these exact bytes, so their format is versioned by
    schema_version."""
    return _render(_tables_fields(max_n, sign, K), "text")


def _basis_provenance(d: int, K: int) -> str | None:
    if d < 5:
        return None
    c = (d - 1) // 2
    sign = "+" if d % 2 == 0 else "-"
    digest = hashlib.sha256(
        tables_document(c - 1, sign, K).encode("utf-8")
    ).hexdigest()
    return f"sha256:{digest}"


# ---------------------------------------------------------------------------
# subcommand implementations (each returns its output fields and an exit code)
# ---------------------------------------------------------------------------

def _run_structure_set(args: argparse.Namespace) -> tuple[list[Field], int]:
    d, K = args.d, args.K
    descriptor = structure_set(d, K, args.budget)
    provenance = _basis_provenance(d, K)
    fields = _header("structure-set") + [
        _field("d", d),
        _field("K", K),
        _field("N", 1 << K),
        _field("free_rank", descriptor.free_rank),
    ]
    if descriptor.torsion is None:
        note = "no torsion description for d < 5"
        fields.append(_field("torsion", None, f"unsupported ({note})"))
        fields.append((None, ("note",), note))
    else:
        fields.append(_field(
            "torsion",
            [{"label": s.label, "order": s.order} for s in descriptor.torsion],
            ", ".join(f"{s.label}:{_decimal_str(s.order)}"
                      for s in descriptor.torsion),
        ))
    fields.append(_field("basis_provenance", provenance, provenance or "none"))
    return fields, 0


def _run_tables(args: argparse.Namespace) -> tuple[list[Field], int]:
    return _tables_fields(args.max_n, args.sign, args.K), 0


def _run_wl(args: argparse.Namespace) -> tuple[list[Field], int]:
    expr, K, l = args.expr, args.K, args.l
    _validate_level(K)
    _validate_projection_level(K, l)
    # pr_l is a ring map, so the expression is read in the level-l field,
    # where its valuation follows the rules of `valuation._LevelValue`
    w = _ExpressionParser(expr, l).parse().w
    return _header("valuation") + [
        _field("expr", expr),
        _field("K", K),
        _field("l", l),
        _field("w", valuation_to_text(w)),
        _field("value", "inf" if w.is_infinite else str(w.value())),
    ], 0


def _run_best_poly(args: argparse.Namespace) -> tuple[list[Field], int]:
    n, sign = args.n, args.sign
    record, poly = _signed_r(sign)(n)
    return _header("best-poly") + [
        _field("n", n),
        _field("sign", sign),
        _field("polynomial", str(poly)),
        _coeffs_field("coeffs", None, poly.coeffs),
        _bits_field("bits", None, record.chosen_bits),
    ], 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

Check = tuple[str, bool]


def _ladder_member(q, K: int, k: int, m: int, times: int = 0) -> bool:
    vec = _eval_f2_vec(q.coeffs, K, k, "odd", m, times)
    return not any(_residue_images([vec])[0][0])


def _random_element(rng: random.Random, K: int) -> RingElement:
    """Entries in [-8, 8] (1 if all vanish), times 2^up / 2^down with up and
    down in [0, 2], times (1 - chi)^twist with twist in [0, 3]: each factor
    of (1 - chi) is one cyclic difference of the N entries (the last one
    0), then the last entry is subtracted to clear chi^(N-1)."""
    nums = [rng.randrange(-8, 9) for _ in range((1 << K) - 1)]
    if not any(nums):
        nums[0] = 1
    up = rng.randrange(0, 3)
    down = rng.randrange(0, 3)
    x = [v << up for v in nums] + [0]
    for _ in range(rng.randrange(0, 4)):
        x = [a - b for a, b in zip(x, x[-1:] + x[:-1])]
    return RingElement._from_cyclic(K, x, 1 << down)


def _suite_wl_rules(args: argparse.Namespace) -> list[Check]:
    checks: list[Check] = []
    for K in range(1, 7):
        f = element_f(K)
        one = make_element(K, [1])
        fsq = f * f
        f_pm = [(f + one, "f+1"), (f - one, "f-1")]
        fsq_minus, fsq_plus = fsq - one, fsq + one
        f_primes = [element_f_prime(K, k) for k in (1, 3, 5, 7)]
        for l in range(K):
            ok = True
            for a in range(5):
                w = w_l(make_element(K, [1 << a]), l)
                ok = ok and not w.is_infinite and (w.a, w.b) == (a, 0)
            checks.append((f"K={K} l={l}: w of powers of two", ok))
            wf = w_l(f, l)
            if l == 0:
                checks.append((f"K={K} l=0: w(f) infinite", wf.is_infinite))
            else:
                checks.append(
                    (f"K={K} l={l}: w(f) = 0",
                     not wf.is_infinite and (wf.a, wf.b) == (0, 0))
                )
            for g, name in f_pm:
                w = w_l(g, l)
                expected = Fraction((1 << l) - 1, 1 << l)
                checks.append(
                    (f"K={K} l={l}: w({name}) = 1 - 2^-l",
                     not w.is_infinite and w.value() == expected)
                )
            w = w_l(fsq_minus, l)
            checks.append(
                (f"K={K} l={l}: w(f^2-1) = 2 - 2^(1-l)",
                 not w.is_infinite
                 and w.value() == Fraction(2) - Fraction(2, 1 << l))
            )
            w = w_l(fsq_plus, l)
            if l == 0:
                ok = not w.is_infinite and w.value() == 0
            elif l == 1:
                ok = w.is_infinite
            else:
                ok = not w.is_infinite and w.value() == 1
            checks.append((f"K={K} l={l}: w(f^2+1) three-way split", ok))
            ok = True
            for fp in f_primes:
                w = w_l(fp, l)
                ok = ok and not w.is_infinite and w.value() == 0
            checks.append((f"K={K} l={l}: w(f'_k) = 0", ok))
    rng = random.Random(args.seed)
    for K in range(1, 6):
        product_ok = True
        sum_ok = True
        for _ in range(60):
            g1 = _random_element(rng, K)
            g2 = _random_element(rng, K)
            for w1, w2, w12, ws in zip(
                    _valuations(g1), _valuations(g2),
                    _valuations(g1 * g2), _valuations(g1 + g2)):
                if w12 != w1 + w2:
                    product_ok = False
                if w1 == w2:
                    if not (ws.is_infinite or w1.is_infinite
                            or ws.value() >= w1.value()):
                        sum_ok = False
                else:
                    if ws != min(w1, w2):
                        sum_ok = False
        checks.append((f"K={K}: product rule on random pairs", product_ok))
        checks.append((f"K={K}: sum rules on random pairs", sum_ok))
    return checks


def _suite_p_identities(args: argparse.Namespace) -> list[Check]:
    checks: list[Check] = []
    frozen = {
        1: (1, 1),
        2: (1, 6, 1),
        3: (1, 28, 70, 28, 1),
    }
    for k, coeffs in frozen.items():
        checks.append((f"p_{k} table value", p_k(k).coeffs == coeffs))
    for k in range(1, 5):
        poly = p_k(k)
        checks.append(
            (f"p_{k} monic of degree 2^{k - 1}",
             poly.is_monic() and poly.degree == 1 << (k - 1))
        )
        for K in range(k + 1, 7):
            f = element_f(K)
            fsq = f * f
            acc = make_element(K, [])
            for c in reversed(poly.coeffs):
                acc = acc * fsq + make_element(K, [c])
            lhs = acc * (make_element(K, [1, -1]) ** (1 << k))
            rhs_coeffs = [0] * ((1 << k) + 1)
            rhs_coeffs[0] = 1
            rhs_coeffs[1 << k] = 1
            rhs = make_element(K, rhs_coeffs) * (1 << ((1 << k) - 1))
            checks.append(
                (f"p_{k} at K={K}: p_k(f^2)(1-chi)^(2^k) identity",
                 lhs == rhs)
            )
    for k in range(6):
        lhs = (IntPolynomial((1, -1))) ** (1 << k)
        mono = [0] * ((1 << k) + 1)
        mono[0] = 1
        mono[1 << k] = 1
        rhs = 2 * x_polynomial(k) + IntPolynomial(tuple(mono))
        checks.append((f"x_{k} splitting identity", lhs == rhs))
    return checks


def _suite_q_ladder(args: argparse.Namespace) -> list[Check]:
    checks: list[Check] = []
    for n in range(6):
        a, b = split_n(n)
        q = q_n(n)
        for k in (1, 3):
            for m in (1, 2):
                tag = f"n={n} k={k} m={m}"
                checks.append(
                    (f"{tag}: member at level {2 * n + 1}",
                     _ladder_member(q, 2 * n + 1, k, m))
                )
                checks.append(
                    (f"{tag}: level {2 * n + 2} membership iff b(n)=0",
                     _ladder_member(q, 2 * n + 2, k, m) == (b == 0))
                )
                checks.append(
                    (f"{tag}: not a member at level {2 * n + 3}",
                     not _ladder_member(q, 2 * n + 3, k, m))
                )
                if b > 0:
                    checks.append(
                        (f"{tag}: (1-chi)^{2 * b - 1} repair at level"
                         f" {2 * n + 2}",
                         _ladder_member(q, 2 * n + 2, k, m, times=2 * b - 1))
                    )
                for s in (1, 2):
                    times = 2 * n + 1 + (1 << a) * ((1 << s) - 2)
                    checks.append(
                        (f"{tag}: (1-chi)^{times} repair at level"
                         f" {2 * n + 2 + s}",
                         _ladder_member(q, 2 * n + 2 + s, k, m, times=times))
                    )
                checks.append(
                    (f"{tag}: (1-chi)^{2 * n} does not repair level"
                     f" {2 * n + 3}",
                     not _ladder_member(q, 2 * n + 3, k, m, times=2 * n))
                )
    return checks


def _suite_r_uniqueness(args: argparse.Namespace) -> list[Check]:
    checks: list[Check] = []
    reset_polynomial_tables()
    expected = {
        0: (1,),
        1: (1, 1),
        2: (7, 0, 1),
        3: (1, 7, 7, 1),
        4: (127, -6, 0, 6, 1),
    }
    for n in range(7):
        try:
            record = r_minus(n)
            _confirm_r_minus(n)
        except ArithmeticError:
            checks.append((f"r^-_{n}: search with uniqueness", False))
            continue
        checks.append((f"r^-_{n}: search with uniqueness", True))
        if n in expected:
            checks.append(
                (f"r^-_{n}: matches the table",
                 record.polynomial.coeffs == expected[n])
            )
    for n in range(3):
        report = shape_remark_report(n)
        checks.append(
            (f"span shape at n={n}: generators inside, index"
             f" 2^{(n + 1) ** 2}",
             report.claim_holds)
        )
    return checks


def _suite_a_eq_b(args: argparse.Namespace) -> list[Check]:
    checks: list[Check] = []
    for K in range(1, 5):
        for k in (1, 3, 5):
            for d in range(5, 10):
                report = verify_A_equals_B(K, k, d, budget=args.budget)
                checks.append(
                    (f"A = B at K={K} k={k} d={d}"
                     f" (index 2^{report.claimed.index_exponent})",
                     report.passed)
                )
    return checks


def _suite_kernel(args: argparse.Namespace) -> list[Check]:
    checks: list[Check] = []
    rng = random.Random(args.seed)
    for d in range(5, 10):
        c = (d - 1) // 2
        for K in range(1, 4):
            expected = tuple(
                sorted(1 << min(K, 2 * i) for i in range(1, c + 1))
            )
            for k in (1, 3):
                subgroup = kernel_oracle(d, K, k, budget=args.budget)
                checks.append(
                    (f"kernel divisors at d={d} K={K} k={k}",
                     subgroup.elementary_divisors == expected)
                )
                agree = True
                for _ in range(25):
                    t4 = tuple(rng.randrange(1 << K) for _ in range(c))
                    t = NormalInvariantVector(d, K, t4, (0,) * c)
                    via_rho = is_in_4Z(rho_bracket(t, k))
                    via_poly = membership_A(t_to_polynomial(t), K, k, d)
                    if via_rho != via_poly:
                        agree = False
                checks.append(
                    (f"obstruction routes agree at d={d} K={K} k={k}", agree)
                )
    return checks


def _suite_extras(args: argparse.Namespace) -> list[Check]:
    checks: list[Check] = []
    rng = random.Random(args.seed)
    for K in range(1, 6):
        ok = True
        for _ in range(20):
            g = _random_element(rng, K)
            parts = [project(g, l) for l in range(K)]
            if crt_reconstruct(parts) != g:
                ok = False
        checks.append((f"K={K}: projection round trip", ok))
        inj = True
        f = element_f(K)
        for _ in range(20):
            p = make_element(K, [rng.randrange(-9, 10) for _ in range(1 << K)])
            z = p - conjugate(p)
            if (f * z).is_zero() != z.is_zero():
                inj = False
        checks.append((f"K={K}: multiplication by f injective"
                       " on the minus part", inj))
        sound = True
        for _ in range(60):
            g = 4 * _random_element(rng, K)
            member = is_in_4Z(g)
            if criterion_sufficient(g) == CriterionVerdict.PROVES_MEMBERSHIP \
                    and not member:
                sound = False
        checks.append((f"K={K}: sufficient criterion never overclaims", sound))
    ok = True
    for _ in range(50):
        poly = IntPolynomial(
            tuple(rng.randrange(-30, 31) for _ in range(rng.randrange(1, 9)))
        )
        if beta_inv(beta(poly)) != poly or beta(beta_inv(poly)) != poly:
            ok = False
    checks.append(("beta round trip on random polynomials", ok))
    for d in range(5, 10):
        for K in range(1, 7):
            descriptor = structure_set(d, K)
            n = 1 << K
            want_rank = n // 2 - 1 if d % 2 else n // 2
            c = (d - 1) // 2
            orders_ok = descriptor.torsion is not None and all(
                s.order == 2 for s in descriptor.torsion[:c]
            ) and tuple(
                s.order for s in descriptor.torsion[c:]
            ) == tuple(1 << min(K, 2 * i) for i in range(1, c + 1))
            checks.append(
                (f"structure-set formulas at d={d} K={K}",
                 descriptor.free_rank == want_rank and orders_ok)
            )
    return checks


_SUITE_RUNNERS: dict[str, Callable[[argparse.Namespace], list[Check]]] = {
    "wl-rules": _suite_wl_rules,
    "p-identities": _suite_p_identities,
    "q-ladder": _suite_q_ladder,
    "r-uniqueness": _suite_r_uniqueness,
    "a-eq-b": _suite_a_eq_b,
    "kernel": _suite_kernel,
    "extras": _suite_extras,
}


def _run_verify(args: argparse.Namespace) -> tuple[list[Field], int]:
    suite = args.suite
    names = list(_SUITE_RUNNERS) if suite == "all" else [suite]
    lines = []
    failed = 0
    for name in names:
        for check_name, ok in _SUITE_RUNNERS[name](args):
            if not ok:
                failed += 1
                print(f"reproduce: lensring verify --suite {name}"
                      f" --seed {args.seed}  # {check_name}",
                      file=sys.stderr)
            lines.append(f"{'ok' if ok else 'FAIL'} {name}: {check_name}")
    total = len(lines)
    header = (("schema_version", SCHEMA_VERSION), ("kind", "verify"),
              ("suite", suite), ("total", total), ("failed", failed),
              ("ok", failed == 0), ("lines", lines))
    summary = (f"suite {suite}: {total} checks, {total - failed} ok,"
               f" {failed} failed")
    return [(None, (key,), value) for key, value in header] + [
        (line, None, None) for line in lines + [summary]
    ], 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags every subcommand takes: how its output is written."""
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="output format: plain text or JSON",
    )
    parser.add_argument("--out", default=None, help="write output to a file")


def _structure_set_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="cap, in summands, on the 2c torsion summands listed"
             f" (default {DEFAULT_BUDGET})",
    )


def _tables_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--sign", choices=("+", "-"), default="-")
    p.add_argument("--K", type=int, default=None)


def _wl_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--expr", required=True,
                   help="the ring expression; write one that starts with"
                        " '-' as --expr=-f")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--l", type=int, required=True)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=(*_SUITE_RUNNERS, "all"),
                   required=True)
    p.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="cap on the size (2^K)^c, in tuples of (Z/2^K)^c, of the"
             " group in which the a-eq-b and kernel suites compute each"
             f" lattice A and rho kernel (default {DEFAULT_BUDGET})",
    )
    p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="seed for the randomized checks",
    )


def _best_poly_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sign", choices=("+", "-"), required=True)


# each subcommand's line in the top-level help, its own arguments and the
# runner `run` dispatches to
_SUBCOMMANDS: dict[str, tuple[
    str, Callable[[argparse.ArgumentParser], None],
    Callable[[argparse.Namespace], tuple[list[Field], int]]]] = {
    "structure-set": ("classification descriptor for one (d, K)",
                      _structure_set_arguments, _run_structure_set),
    "tables": ("the p/q/r polynomial tables", _tables_arguments,
               _run_tables),
    "wl": ("one valuation of a ring expression", _wl_arguments, _run_wl),
    "verify": ("re-run a book of exact checks", _verify_arguments,
               _run_verify),
    "best-poly": ("a single best polynomial with its bits",
                  _best_poly_arguments, _run_best_poly),
}


def _add_subcommand_arguments(parser: argparse.ArgumentParser,
                              name: str) -> None:
    """The flags of subcommand `name`: the common ones, then its own."""
    _add_common_arguments(parser)
    _SUBCOMMANDS[name][1](parser)


def _formatter_class() -> Callable[..., argparse.HelpFormatter]:
    """argparse's help formatter at its own default width, the terminal's
    columns less 2, probed here once: the default formatter probes the
    terminal each time one is built, and argparse builds one per
    add_argument and per parse."""
    return partial(argparse.HelpFormatter,
                   width=shutil.get_terminal_size().columns - 2)


def build_parser() -> argparse.ArgumentParser:
    """The parser of the whole command line, every subcommand's parser in
    it.  `main` builds it only for a line whose first argument names no
    subcommand (top-level help and usage errors); a line that names one
    builds that subcommand's parser alone.  It probes the terminal once."""
    formatter_class = _formatter_class()
    parser = argparse.ArgumentParser(
        prog="lensring",
        description="Structure sets of fake lens spaces via exact"
                    " ring arithmetic",
        formatter_class=formatter_class,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, _) in _SUBCOMMANDS.items():
        _add_subcommand_arguments(
            sub.add_parser(name, help=help_text,
                           formatter_class=formatter_class), name)
    return parser


def run(args: argparse.Namespace) -> tuple[str, int]:
    """Execute one parsed command line; returns (output text, exit code).
    A negative --budget is refused before the subcommand runs."""
    if vars(args).get("budget", 0) < 0:
        raise ValueError(f"--budget must be non-negative, got {args.budget}")
    _, _, runner = _SUBCOMMANDS[args.subcommand]
    fields, code = runner(args)
    return _render(fields, args.format), code


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in _SUBCOMMANDS:
            name = argv[0]
            parser = argparse.ArgumentParser(
                prog=f"lensring {name}", formatter_class=_formatter_class())
            _add_subcommand_arguments(parser, name)
            args = parser.parse_args(argv[1:],
                                     argparse.Namespace(subcommand=name))
        else:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        output, code = run(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if not args.out:
        sys.stdout.write(output)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
