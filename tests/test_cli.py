"""Tests for the command line interface."""

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

from lensring import (LevelProjection, cli, element_f, element_f_k,
                      element_f_prime, make_element, project, ring, valuation,
                      w_l)
from lensring.cli import main, run, tables_document
from lensring.valuation import _valuation, valuation_to_text


class DenseParser(cli._ExpressionParser):
    """The wl language evaluated element by element in the level-l field:
    every atom the projection of its level-(l + 1) family window, every
    product 2^l entries.  The oracle of the valuation rules and closed
    forms `wl` reads instead."""

    def _integer(self, c):
        return self._polynomial([c])

    def _chi(self):
        return self._polynomial([0, 1])

    def _polynomial(self, coeffs):
        return LevelProjection._from_ints(
            self.level, ring._wrap(coeffs, 1 << self.level, -1))

    def _family(self, k, f_power):
        window = ring._family_vec(self.level + 1, k, f_power=f_power)
        return project(ring._element_from_vec(self.level + 1, window),
                       self.level)


class LevelKParser(DenseParser):
    """The wl language evaluated in Q[chi]/I<K> instead of the level-l
    field: the oracle of wl, which projects the result to level l."""

    def _polynomial(self, coeffs):
        return make_element(self.level, coeffs)

    def _family(self, k, f_power):
        return ring._element_from_vec(
            self.level, ring._family_vec(self.level, k, f_power=f_power))


def parse_expression(text, K):
    return LevelKParser(text, K).parse()


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def test_structure_set_text(capsys):
    code, out = run_cli(capsys, "structure-set", "--d", "5", "--K", "3")
    assert code == 0
    assert "free_rank = 3" in out
    assert "torsion = r_2:2, r_6:2, r_4:4, r_8:8" in out
    assert "basis_provenance = sha256:" in out


def test_structure_set_structured(capsys):
    code, out = run_cli(
        capsys, "structure-set", "--d", "5", "--K", "3",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["d"] == 5 and doc["K"] == 3 and doc["N"] == 8
    assert doc["free_rank"] == 3
    assert doc["torsion"] == [
        {"label": "r_2", "order": 2},
        {"label": "r_6", "order": 2},
        {"label": "r_4", "order": 4},
        {"label": "r_8", "order": 8},
    ]
    # the provenance is the hash of the matching tables document
    want = hashlib.sha256(tables_document(1, "-", 3).encode()).hexdigest()
    assert doc["basis_provenance"] == f"sha256:{want}"


def test_structure_set_low_degree_note(capsys):
    code, out = run_cli(
        capsys, "structure-set", "--d", "3", "--K", "2",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["torsion"] is None
    assert doc["basis_provenance"] is None
    assert "d < 5" in doc["note"]


def test_tables_text(capsys):
    code, out = run_cli(capsys, "tables", "--max-n", "2")
    assert code == 0
    assert "r[2] = 7,0,1" in out
    assert "r[2].bits = 0:1" in out
    assert "scaling[1] = max(K-4,0)" in out


def test_tables_structured_with_level(capsys):
    code, out = run_cli(
        capsys, "tables", "--max-n", "2", "--sign", "+", "--K", "5",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["K"] == 5
    assert doc["r"]["2"]["coeffs"] == [8, 1, 1]
    assert doc["scaling"] == {"0": 3, "1": 1, "2": 0}


def test_wl_command(capsys):
    code, out = run_cli(
        capsys, "wl", "--expr", "f^2-1", "--K", "4", "--l", "2"
    )
    assert code == 0
    assert "w = 1+2/2^2" in out
    assert "value = 3/2" in out


def unlimited_str(x):
    """str(x) with Python's int-to-str digit limit lifted."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(old)


def test_wl_value_past_the_int_to_str_limit(capsys):
    # w(1 - chi) = 2^-l: at l = 14285 the denominator of the value has 4301
    # digits, one past the limit, and prints in full in both formats, as
    # at l = 14284
    for l in (14284, 14285):
        den = unlimited_str(1 << l)
        argv = ("wl", "--expr", "1-chi", "--K", str(l + 1), "--l", str(l))
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.endswith(f"w = 0+1/2^{l}\nvalue = 1/{den}\n")
        code, out = run_cli(capsys, *argv, "--format", "structured")
        assert code == 0
        assert json.loads(out)["value"] == f"1/{den}"


def test_wl_literal_past_the_int_to_str_limit(capsys):
    # an exponent of 5000 digits is a valid literal: w((1 - chi)^e) = e / 2
    e = unlimited_str(10 ** 5000 - 1)
    code, out = run_cli(capsys, "wl", "--expr", f"(1-chi)^{e}", "--K", "3",
                        "--l", "1")
    assert code == 0
    half = unlimited_str((10 ** 5000 - 1) // 2)
    assert out.endswith(f"w = {half}+1/2^1\nvalue = {e}/2\n")


def test_wl_infinite(capsys):
    code, out = run_cli(
        capsys, "wl", "--expr", "f", "--K", "3", "--l", "0",
        "--format", "structured",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["w"] == "inf" and doc["value"] == "inf"


def random_expression(rng, depth=0):
    if depth > 3 or rng.random() < 0.35:
        kind = rng.choice(("int", "chi", "f", "fk", "fpk"))
        if kind == "int":
            return str(rng.randrange(0, 20))
        if kind in ("fk", "fpk"):
            return f"{kind}({rng.choice((1, 3, 5, 7, 9, 11))})"
        return kind
    op = rng.choice(("+", "-", "*", "^", "neg", "paren"))
    if op == "^":
        return f"({random_expression(rng, depth + 1)})^{rng.randrange(5)}"
    if op == "neg":
        return "-" + random_expression(rng, depth + 1)
    if op == "paren":
        return f"({random_expression(rng, depth + 1)})"
    return (random_expression(rng, depth + 1) + op
            + random_expression(rng, depth + 1))


def test_wl_matches_the_level_K_evaluation(capsys):
    # wl evaluates in the level-l field; the oracle evaluates the whole
    # expression in Q[chi]/I<K> and projects at the end
    rng = random.Random(43)
    infinite = 0
    for _ in range(300):
        K = rng.randrange(1, 8)
        l = rng.randrange(K)
        expr = random_expression(rng)
        w = w_l(parse_expression(expr, K), l)
        infinite += w.is_infinite
        value = "inf" if w.is_infinite else w.value()
        want = (f"schema_version = 1\nkind = valuation\nexpr = {expr}\n"
                f"K = {K}\nl = {l}\nw = {valuation_to_text(w)}\n"
                f"value = {value}\n")
        assert run_cli(capsys, "wl", f"--expr={expr}", "--K", str(K),
                       "--l", str(l)) == (0, want), (expr, K, l)
    assert 0 < infinite < 300


def test_wl_cost_follows_l_not_K(capsys):
    # atoms are built in the level-l field, so K = 40 costs what K = 4 does
    lines = {}
    for K in ("4", "40"):
        code, out = run_cli(capsys, "wl", "--expr", "f^2-1", "--K", K,
                            "--l", "3")
        assert code == 0
        lines[K] = [x for x in out.splitlines()
                    if x.startswith(("w ", "value "))]
    assert lines["4"] == lines["40"] == ["w = 1+6/2^3", "value = 7/4"]


def test_a_huge_level_is_validated_without_building_two_to_the_k(capsys):
    # K = 10^8 is checked, printed and scaled, never turned into N = 2^K
    import tracemalloc
    for args, line in (
            (("wl", "--expr", "f^2-1", "--K", "100000000", "--l", "3"),
             "w = 1+6/2^3"),
            (("tables", "--max-n", "1", "--K", "100000000"),
             "scaling[1] = 99999996")):
        tracemalloc.start()
        try:
            code, out = run_cli(capsys, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and line in out.splitlines()
        assert peak < 1 << 20, (args, peak)


def test_wl_family_with_a_class_step_past_n(capsys):
    # f'_k and f_k at level l depend on k mod 2^(l + 1) only, the order of
    # chi there, so k = 10^9 costs what k mod 4 does and reads the same w
    # and value
    def valuation_lines(expr):
        code, out = run_cli(capsys, "wl", "--expr", expr, "--K", "3",
                            "--l", "1")
        assert code == 0
        return [x for x in out.splitlines() if x.startswith(("w ", "value "))]
    assert valuation_lines("fpk(1000000001)") == valuation_lines("fpk(1)") \
        == ["w = 0+0/2^1", "value = 0"]
    assert valuation_lines("fk(1000000003)*fpk(999999999)") \
        == valuation_lines("fk(3)*fpk(7)")


def random_tied_expression(rng, l, depth=0):
    """An expression over every atom, with k past 2^(l + 1) and even k
    among the family indices, where a third of the binary sums subtract or
    add an expression to itself, to an atom or to a small integer."""
    if depth > 3 or rng.random() < 0.3:
        kind = rng.choice(("int", "int", "chi", "f", "fk", "fpk"))
        if kind == "int":
            return str(rng.choice((0, 1, 2, 3, 4, 5, 6, 8, 12, 16)))
        if kind in ("fk", "fpk"):
            k = rng.choice((1, 3, 5, 7, 9, 15, 33, 127, 10 ** 9 + 1,
                            (2 << l) - 1, (2 << l) + 1, (6 << l) + 5, 0, 2))
            return f"{kind}({k})"
        return kind
    op = rng.choice(("+", "-", "*", "^", "neg", "paren", "tie", "tie"))
    a = random_tied_expression(rng, l, depth + 1)
    if op == "^":
        return f"({a})^{rng.randrange(5)}"
    if op == "neg":
        return "-" + a
    if op == "paren":
        return f"({a})"
    if op == "tie":
        b = rng.choice((a, random_tied_expression(rng, l, depth + 1),
                        random_tied_expression(rng, l, 3), "1", "2"))
        return f"({a}){rng.choice('+-')}({b})"
    return a + op + random_tied_expression(rng, l, depth + 1)


def parsed_valuation(parser, text, l):
    """w_l of text read by parser, or the type and message it raised."""
    try:
        value = parser(text, l).parse()
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(value, LevelProjection):
        return _valuation(value.nums, value.den, l)
    return value.w


def test_wl_valuation_rules_match_the_dense_parser():
    # the valuation rules, the closed-form atoms, the closed form of a
    # polynomial in one atom and the residues give the w of the element
    # built entry by entry, and every error with its message, at every
    # level l <= 10
    fixed = ["0^0", "0^3", "0^0*chi", "(f-f)^0", "chi^0-1", "f^2-1",
             "(f^2-1)^2-(f^2-1)^2", "f^3-fk(3)^2", "fpk(3)*f^2-chi^100",
             "2^40-2^40", "fk(2)", "fpk(0)", "f+)", "f f", "(f", "1-1",
             "(" * 101 + "f" + ")" * 101, "fk(1000000001)-f", "3*f-f-2*f"]
    rng = random.Random(34)
    kinds = {"inf": 0, "error": 0, "finite": 0}
    for l in range(11):
        cases = fixed + [random_tied_expression(rng, l) for _ in range(150)]
        for text in cases:
            want = parsed_valuation(DenseParser, text, l)
            assert parsed_valuation(cli._ExpressionParser, text, l) == want, \
                (text, l)
            kinds["error" if isinstance(want, tuple) else
                  "inf" if want.is_infinite else "finite"] += 1
    assert min(kinds.values()) > 100, kinds


def dense_residue(p, l):
    """The residue mod pi^T (T = min(2^l, 2^10)) of an integral level-l
    element, from its coefficients: over F_2, chi = 1 + pi, and the
    coefficient of pi^i sums those of chi^j over the j whose bits hold
    i's (Lucas), which the superset-sum transform reads."""
    assert p.den == 1
    bits = [c & 1 for c in p.nums]
    for h in range(l):
        for i in range(len(bits)):
            if not i >> h & 1:
                bits[i] ^= bits[i | 1 << h]
    return sum(b << i for i, b in enumerate(bits[:1 << min(l, 10)]))


def test_wl_residues_match_the_dense_parser():
    # every value is integral, and its residue mod pi^T built from the
    # atoms' residues (1 + pi^(M-1) for f and f_k, 1 for f'_k) is that of
    # its element, also past l = 10, where T = 2^10 < 2^l
    rng = random.Random(35)
    nonzero = 0
    for l in range(13):
        for _ in range(30 if l <= 10 else 10):
            text = random_tied_expression(rng, l)
            try:
                want = DenseParser(text, l).parse()
            except ValueError:
                continue
            value = cli._ExpressionParser(text, l).parse()
            assert value.w == _valuation(want.nums, want.den, l), (text, l)
            got = value.built(valuation._RESIDUE).bits
            assert got == dense_residue(want, l), (text, l)
            nonzero += got != 0
    assert nonzero > 100


def test_wl_builds_no_element_where_a_rule_answers(monkeypatch):
    # a tied sum of polynomials in one atom reads w off P, a tied sum with
    # a nonzero residue off that; an untied sum or a product builds
    # nothing, so these answer at l = 20 without 2^20 entries
    def refuse(*args):
        raise AssertionError("an element was built")
    monkeypatch.setattr(valuation, "_in_level", refuse)
    monkeypatch.setattr(valuation, "_family_atom", refuse)
    for expr, w in (("(f^2-1)^2", "3+1048572/2^20"),
                    ("fpk(7)^1000000007*(f+1)^7", "6+1048569/2^20"),
                    ("(fk(3)+1)^3-fk(3)^3-1", "0+1048575/2^20"),
                    ("f^1000000007+2*chi", "0+0/2^20"),
                    ("fpk(3)*f^2-chi^100", "0+4/2^20"),
                    ("(1-chi)^5*fk(3)", "0+5/2^20"),
                    ("8*fk(7)^2+fpk(7)", "0+0/2^20")):
        assert valuation_to_text(cli._ExpressionParser(expr, 20).parse().w) \
            == w, expr


@pytest.mark.parametrize("args, err", [
    (("--expr", "f", "--K", "0", "--l", "0"),
     "level K must be a positive integer, got 0"),
    (("--expr", "f", "--K", "3", "--l", "3"),
     "projection level must satisfy 0 <= l <= 2, got 3"),
    (("--expr", "f", "--K", "3", "--l", "-1"),
     "projection level must satisfy 0 <= l <= 2, got -1"),
    (("--expr", "fk(2)", "--K", "3", "--l", "1"),
     "k must be a positive odd integer, got 2"),
    (("--expr", "f^^2", "--K", "3", "--l", "1"), "expected 'int', found '^'"),
    (("--expr", "foo", "--K", "3", "--l", "1"),
     "unknown name 'foo' in expression"),
    (("--expr", "f×f", "--K", "3", "--l", "1"),
     "unexpected character '×' in expression"),
])
def test_wl_usage_errors(capsys, args, err):
    assert main(["wl", *args]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {err}\n")


def test_wl_expression_with_a_leading_minus(capsys):
    # argparse reads "-f" after --expr as a flag: a usage error
    assert main(["wl", "--expr", "-f", "--K", "3", "--l", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --expr: expected one argument" in captured.err
    # written --expr=-f it is read, and a sign leaves w unchanged
    w = {}
    for expr in ("--expr=-f", "--expr=f"):
        code, out = run_cli(capsys, "wl", expr, "--K", "3", "--l", "1")
        assert code == 0
        (w[expr],) = [x for x in out.splitlines() if x.startswith("w ")]
    assert w["--expr=-f"] == w["--expr=f"] == "w = 0+0/2^1"


def test_wl_chain_of_signs_is_plus_or_minus_f(capsys):
    # a long chain of signs is read without recursion: an even count is f,
    # an odd one -f
    K = 3
    f = element_f(K)
    for count in (1100, 1101):
        expr = "-" * count + "f"
        assert parse_expression(expr, K) == (-f if count % 2 else f)
        code, out = run_cli(capsys, "wl", f"--expr={expr}", "--K", str(K),
                            "--l", "1")
        assert code == 0
        assert "w = 0+0/2^1" in out.splitlines()


def test_wl_nesting_past_the_cap_is_a_usage_error(capsys):
    K = 3
    inside = "(" * 100 + "f" + ")" * 100
    assert parse_expression(inside, K) == element_f(K)
    code, out = run_cli(capsys, "wl", "--expr", inside, "--K", "3",
                        "--l", "1")
    assert code == 0 and "w = 0+0/2^1" in out.splitlines()
    for depth in (101, 250, 5000):
        expr = "(" * depth + "f" + ")" * depth
        with pytest.raises(ValueError, match="nested deeper than 100"):
            parse_expression(expr, K)
        assert main(["wl", "--expr", expr, "--K", "3", "--l", "1"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: parentheses nested deeper than 100\n")


def test_best_poly(capsys):
    code, out = run_cli(capsys, "best-poly", "--n", "2", "--sign", "-")
    assert code == 0
    assert "polynomial = x^2 + 7" in out
    assert "bits = 0:1" in out
    code, out = run_cli(capsys, "best-poly", "--n", "2", "--sign", "+")
    assert code == 0
    assert "polynomial = x^2 + x + 8" in out


def test_verify_suite_exit_zero(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "p-identities")
    assert code == 0
    assert "0 failed" in out
    assert "FAIL" not in out


def test_verify_structured(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "r-uniqueness", "--format", "structured"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["failed"] == 0
    assert doc["total"] == len(doc["lines"])


def test_verify_failure_exits_one(capsys, monkeypatch):
    from lensring import cli

    monkeypatch.setitem(
        cli._SUITE_RUNNERS, "wl-rules", lambda config: [("stub check", False)]
    )
    code, out = run_cli(capsys, "verify", "--suite", "wl-rules")
    assert code == 1
    assert "FAIL wl-rules: stub check" in out


def test_r_minus_confirmation_can_fail(capsys, monkeypatch):
    # a (3, 2) system with another winner at rung 5: the confirmation
    # names the rung and the pair, and verify reports the rung as failed
    from lensring import polynomials

    rung_winners = polynomials._rung_winners

    def skewed(n, k, m):
        winners = rung_winners(n, k, m)
        if (n, k, m) == (5, 3, 2):
            return [w ^ 1 for w in winners]
        return winners

    monkeypatch.setattr(polynomials, "_rung_winners", skewed)
    polynomials._confirm_r_minus(4)
    with pytest.raises(ArithmeticError,
                       match=r"r\^-_5: .*\(k, m\) = \(3, 2\)"):
        polynomials._confirm_r_minus(5)
    assert main(["verify", "--suite", "r-uniqueness", "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "reproduce: lensring verify --suite r-uniqueness --seed 3"
        "  # r^-_5: search with uniqueness\n"
    )
    fails = [line for line in captured.out.splitlines()
             if line.startswith("FAIL ")]
    assert fails == ["FAIL r-uniqueness: r^-_5: search with uniqueness"]


def test_verify_failure_prints_reproducer_to_stderr(capsys, monkeypatch):
    from lensring import cli

    runners = {name: (lambda config: [("stub", True)])
               for name in cli._SUITE_RUNNERS}
    runners["q-ladder"] = lambda config: [
        ("n=2 k=3 m=1: member at level 5", False),
        ("n=2 k=3 m=2: member at level 5", True),
    ]
    monkeypatch.setattr(cli, "_SUITE_RUNNERS", runners)
    assert main(["verify", "--suite", "all", "--seed", "11"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "reproduce: lensring verify --suite q-ladder --seed 11"
        "  # n=2 k=3 m=1: member at level 5\n"
    )
    assert "FAIL q-ladder: n=2 k=3 m=1: member at level 5" in captured.out
    # a passing run writes nothing to stderr
    monkeypatch.undo()
    assert main(["verify", "--suite", "p-identities"]) == 0
    assert capsys.readouterr().err == ""


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "verify", "--suite", "kernel")
    _, second = run_cli(capsys, "verify", "--suite", "kernel")
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "doc.json"
    code, out = run_cli(
        capsys, "structure-set", "--d", "7", "--K", "2",
        "--format", "structured", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["d"] == 7


def test_unwritable_out_exits_two(tmp_path, capsys):
    # a directory, and a file whose parent directory is missing
    for target, error in ((tmp_path, "Is a directory"),
                          (tmp_path / "missing" / "doc.txt",
                           "No such file or directory")):
        assert main(["wl", "--expr", "f", "--K", "3", "--l", "1",
                     "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert error in captured.err and str(target) in captured.err
    assert list(tmp_path.iterdir()) == []


def test_usage_errors_exit_two(capsys):
    assert main(["structure-set", "--d", "2", "--K", "3"]) == 2
    assert main(["wl", "--expr", "f^^2", "--K", "3", "--l", "1"]) == 2
    assert main(["wl", "--expr", "f", "--K", "3", "--l", "5"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["tables"]) == 2
    capsys.readouterr()
    # a negative budget is rejected up front, before the subcommand's own
    # checks (d = 2 is refused too), not reported as exceeded
    for argv in (["structure-set", "--d", "5", "--K", "2"],
                 ["structure-set", "--d", "2", "--K", "3"],
                 ["verify", "--suite", "a-eq-b"],
                 ["verify", "--suite", "kernel"]):
        assert main(argv + ["--budget", "-1"]) == 2, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: --budget must be non-negative, got -1\n"), argv


def test_tables_level_must_be_positive(capsys):
    for K in (0, -3):
        with pytest.raises(ValueError, match="positive"):
            tables_document(2, "-", K)
        for fmt in ("text", "structured"):
            assert main(["tables", "--max-n", "2", "--K", str(K),
                         "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "level K must be a positive integer" in captured.err


def test_tables_and_best_poly_validate_sign_and_max_n():
    with pytest.raises(ValueError, match="sign must be '\\+' or '-', got 'x'"):
        tables_document(2, "x")
    for max_n in (-1, True):
        with pytest.raises(ValueError, match="max_n must be a non-negative"):
            tables_document(max_n, "-")
    with pytest.raises(ValueError, match="sign must be '\\+' or '-', got 'x'"):
        run(argparse.Namespace(subcommand="best-poly", n=2, sign="x",
                               format="text"))


def test_internal_attribute_error_is_not_a_usage_error(capsys, monkeypatch):
    # a runner that reads a flag its subcommand does not declare is a bug:
    # it ends in a traceback, not in exit 2
    from lensring import cli

    def broken(args):
        return [("stub", args.no_such_flag)]

    monkeypatch.setitem(cli._SUITE_RUNNERS, "kernel", broken)
    with pytest.raises(AttributeError, match="no_such_flag"):
        main(["verify", "--suite", "kernel"])
    assert capsys.readouterr().err == ""


def test_structure_set_summands_are_gated_by_the_budget(capsys):
    # 2c = 2^21 summands exceed the default budget of 2^20: exit 3 at once;
    # --budget moves the gate
    assert main(["structure-set", "--d", "2097153", "--K", "3"]) == 3
    assert capsys.readouterr().err == ("error: the torsion has 2097152"
                                       " summands, over the budget of"
                                       " 1048576\n")
    assert main(["structure-set", "--d", "9", "--K", "3",
                 "--budget", "7"]) == 3
    assert main(["structure-set", "--d", "9", "--K", "3",
                 "--budget", "8"]) == 0


def test_budget_exit_three(capsys, monkeypatch):
    assert main(["verify", "--suite", "a-eq-b", "--budget", "4"]) == 3
    # the command line is the whole configuration: the environment is not
    # read
    monkeypatch.setenv("LENSRING_BUDGET", "4")
    assert main(["verify", "--suite", "a-eq-b"]) == 0
    capsys.readouterr()


def test_internal_invariant_failure_exits_four(capsys, monkeypatch):
    from lensring import cli

    def broken(config):
        raise ArithmeticError("witness did not check out")

    monkeypatch.setitem(cli._SUITE_RUNNERS, "kernel", broken)
    assert main(["verify", "--suite", "kernel"]) == 4
    assert "witness did not check out" in capsys.readouterr().err


def test_window_invariant_failure_exits_four(capsys, monkeypatch):
    from lensring import cli, ring

    def broken(config):
        # a class step of 3 is not restrided to step 1
        ring._eval_f2_vec((1, 1), 8, 3, "odd", 1).restrided(1)
        return [("unreachable", True)]

    monkeypatch.setitem(cli._SUITE_RUNNERS, "q-ladder", broken)
    assert main(["verify", "--suite", "q-ladder"]) == 4
    assert "cannot hold class step 3" in capsys.readouterr().err


def test_each_reproducer_command_is_accepted(capsys, monkeypatch):
    from lensring import cli

    monkeypatch.setattr(cli, "_SUITE_RUNNERS", {
        name: (lambda config: [("stub", False)]) for name in cli._SUITE_RUNNERS
    })
    assert main(["verify", "--suite", "all", "--seed", "5"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(cli._SUITE_RUNNERS)
    for line in lines:
        command = line.split("  # ")[0].split()
        assert command[:2] == ["reproduce:", "lensring"]
        assert main(command[2:]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL ") and f"suite {command[4]}:" in out


def test_verify_all_runs_each_listed_suite_once(capsys, monkeypatch):
    from lensring import cli

    names = list(cli._SUITE_RUNNERS)
    monkeypatch.setattr(cli, "_SUITE_RUNNERS", {
        name: (lambda config: [("stub", True)]) for name in names
    })
    code, out = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0
    assert out.splitlines() == [f"ok {name}: stub" for name in names] + [
        f"suite all: {len(names)} checks, {len(names)} ok, 0 failed"
    ]


def test_every_subcommand_argument_is_read(capsys):
    # `run` reads every flag a subcommand declares (--out is main's); a
    # flag nothing reads would be a setting that changes nothing
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(cli._SUBCOMMANDS)
    common = {"help", "format", "out", "budget", "seed"}
    # one valid line per subcommand; verify's kernel suite reads both its
    # --seed and its --budget
    valid = {"structure-set": ["--d", "7", "--K", "2"],
             "tables": ["--max-n", "2"],
             "wl": ["--expr", "f", "--K", "3", "--l", "1"],
             "verify": ["--suite", "kernel"],
             "best-poly": ["--n", "2", "--sign", "-"]}
    assert list(valid) == list(subparsers.choices)
    for name, sub in subparsers.choices.items():
        args = parser.parse_args([name, *valid[name]], Recorder())
        reads.clear()
        output, code = run(args)
        assert code == 0 and output, name
        assert reads >= {a.dest for a in sub._actions} - {"help", "out"}, (
            name, reads)
        own = [a for a in sub._actions if a.dest not in common]
        argv = [name]
        for action in own:
            value = (action.choices[0] if action.choices
                     else "3" if action.type is int else "f")
            argv += [action.option_strings[0], str(value)]
        # a subcommand rejects a flag it does not read: --seed is verify's
        # alone, --budget that of structure-set and verify; it says so with
        # its own usage line
        dests = {a.dest for a in sub._actions}
        for flag in ("seed", "budget"):
            if flag not in dests:
                capsys.readouterr()
                assert main(argv + [f"--{flag}", "5"]) == 2, (name, flag)
                err = capsys.readouterr().err
                assert err.startswith(f"usage: lensring {name} "), err
                assert (f"lensring {name}: error: unrecognized arguments:"
                        f" --{flag} 5") in err, err
    assert [name for name, sub in subparsers.choices.items()
            if "budget" in {a.dest for a in sub._actions}] == [
        "structure-set", "verify"]


def test_terminal_probed_once_per_command_line(capsys, monkeypatch):
    # argparse builds a help formatter per add_argument and per parse, and
    # its default one probes the terminal each time; build_parser's probes
    # it once per command line, whether it parses, prints help or fails
    import shutil

    probes = []
    probe = shutil.get_terminal_size

    def spy(*args, **kwargs):
        probes.append(args)
        return probe(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", spy)
    for argv, code in (
            (["wl", "--expr", "fk(3)*chi^9-2", "--K", "5", "--l", "3"], 0),
            (["verify", "--suite", "p-identities"], 0),
            (["--help"], 0),
            (["wl", "--K", "3"], 2)):
        probes.clear()
        assert main(argv) == code, argv
        assert len(probes) == 1, argv
    capsys.readouterr()


def test_help_and_usage_match_the_default_formatter(monkeypatch):
    # the formatter built once per command line prints what argparse's own
    # HelpFormatter, which probes the terminal each time, prints, at a
    # narrow and a wide terminal
    from lensring import cli

    def helps(parser):
        (subparsers,) = [a for a in parser._actions
                         if isinstance(a, argparse._SubParsersAction)]
        return [(p.format_help(), p.format_usage())
                for p in (parser, *subparsers.choices.values())]

    seen = {}
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with monkeypatch.context() as patch:
            seen[columns] = helps(cli.build_parser())
            patch.setattr(cli, "_formatter_class",
                          lambda: argparse.HelpFormatter)
            assert helps(cli.build_parser()) == seen[columns], columns
        assert len(seen[columns]) == 1 + len(cli._SUBCOMMANDS)
    assert seen["60"] != seen["200"]


def test_main_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no argv; it parses sys.argv[1:]
    for argv in (["lensring", "wl", "--expr", "f", "--K", "3", "--l", "1"],
                 ["lensring"]):
        code = main(argv[1:])
        want = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", argv)
        assert main() == code, argv
        assert capsys.readouterr() == want, argv


def test_subcommand_help_is_that_of_the_full_parser(capsys, monkeypatch):
    # main builds a named subcommand's parser on its own; it must print the
    # help of the same subcommand inside build_parser's tree
    monkeypatch.setenv("COLUMNS", "80")
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(cli._SUBCOMMANDS)
    for name, sub in subparsers.choices.items():
        assert main([name, "--help"]) == 0, name
        assert capsys.readouterr().out == sub.format_help(), name


def old_random_element(rng, K):
    """The generator built with ring products, kept as the oracle."""
    g = make_element(K, [rng.randrange(-8, 9) for _ in range((1 << K) - 1)])
    if g.is_zero():
        g = make_element(K, [1])
    g = g * Fraction(1 << rng.randrange(0, 3), 1 << rng.randrange(0, 3))
    twist = rng.randrange(0, 4)
    if twist:
        g = g * (make_element(K, [1, -1]) ** twist)
    return g


def test_random_element_matches_the_ring_product_generator():
    from lensring.cli import _random_element

    for seed in range(40):
        for K in range(1, 7):
            rng, want_rng = random.Random(seed), random.Random(seed)
            for _ in range(5):
                got, want = _random_element(rng, K), old_random_element(
                    want_rng, K)
                assert (got.level, got.den, got.nums) == (
                    want.level, want.den, want.nums)
            assert rng.getstate() == want_rng.getstate()
    # an all-zero draw becomes 1 (K = 1 draws one entry)
    rng = random.Random(0)
    while True:
        state = rng.getstate()
        if rng.randrange(-8, 9) == 0:
            break
    rng.setstate(state)
    want_rng = random.Random()
    want_rng.setstate(state)
    assert _random_element(rng, 1) == old_random_element(want_rng, 1)
    assert rng.getstate() == want_rng.getstate()


def test_expression_language():
    K = 3
    one = make_element(K, [1])
    chi = make_element(K, [0, 1])
    f = element_f(K)
    assert parse_expression("1+2*chi", K) == one + 2 * chi
    assert parse_expression("(f-1)*(f+1)", K) == f * f - one
    assert parse_expression("f^2-1", K) == f * f - one
    assert parse_expression("-chi^2", K) == -(chi * chi)
    assert parse_expression("2^3", K) == make_element(K, [8])
    assert parse_expression("fk(3)", K) == element_f_k(K, 3)
    assert parse_expression("fpk(5)", K) == element_f_prime(K, 5)
    # unicode aliases for minus and the product dot
    assert parse_expression("f−1", K) == f - one
    assert parse_expression("2·chi", K) == 2 * chi
    w = w_l(parse_expression("8*(1+chi)", K), 1)
    assert (w.a, w.b) == (3, 1)


def test_expression_language_rejects_garbage():
    for bad in ("f^", "f^(2)", "foo", "1+", "(1", "f 2", "chi@", "fk(2)"):
        with pytest.raises(ValueError):
            parse_expression(bad, 3)


def test_wl_unicode_aliases_give_the_ascii_output(capsys):
    # the unicode minus and the middle dot read as - and *: only the echoed
    # expression differs (the multiplication sign is refused, see
    # test_wl_usage_errors)
    def wl(expr):
        assert main(["wl", f"--expr={expr}", "--K", "3", "--l", "1"]) == 0
        return capsys.readouterr().out

    for expr, ascii_expr in (("f·f", "f*f"), ("−f", "-f"),
                             ("2·chi−fk(3)", "2*chi-fk(3)")):
        assert wl(expr) == wl(ascii_expr).replace(
            f"expr = {ascii_expr}\n", f"expr = {expr}\n"), expr


def test_integer_literals_are_ascii_digits(capsys):
    # superscript two and the Arabic-Indic digit three pass str.isdigit();
    # each is an unexpected character, not a literal int() reads or rejects
    for expr, ch in (("f\u00b2", "\u00b2"), ("f^\u0663", "\u0663"),
                     ("fk(\u0663)", "\u0663"), ("\u0663*f", "\u0663")):
        assert main(["wl", "--expr", expr, "--K", "3", "--l", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: unexpected character {ch!r} in expression\n")


def test_tables_document_hash_stability():
    a = tables_document(2, "-", None)
    b = tables_document(2, "-", None)
    assert a == b
    assert tables_document(2, "-", 4) != a
