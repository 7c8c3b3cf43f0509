"""Tests for the package surface, for messages that name huge values and
for huge values at the text boundary."""

import contextlib
import json
import sys
from fractions import Fraction

import pytest

import lensring
from lensring import (
    BudgetExceededError,
    IntPolynomial,
    LevelProjection,
    Valuation,
    brute_force_A,
    cli,
    criterion_necessary_search,
    evaluate_at_f_squared,
    kernel_oracle,
    make_element,
    p_k,
    polynomials,
    project,
    r_minus,
    ring,
    shape_remark_report,
    split_n,
    structure,
    valuation,
    x_polynomial,
)

EXPORTS = {
    "__version__",
    "BudgetExceededError", "CriterionVerdict", "DEFAULT_BUDGET",
    "IntPolynomial", "KernelSubgroup", "LatticeComparisonReport",
    "LatticeDescriptor", "LevelProjection", "NormalForm",
    "NormalInvariantVector", "ONE", "RMinusRecord", "RingElement",
    "ShapeRemarkReport", "StructureSetDescriptor", "TorsionSummand",
    "Valuation", "X",
    "b_basis", "beta", "beta_inv", "brute_force_A", "conjugate",
    "criterion_necessary", "criterion_necessary_search",
    "criterion_sufficient", "crt_reconstruct", "eigenspace_test",
    "element_f", "element_f_k", "element_f_prime", "element_from_text",
    "element_to_text", "evaluate_at_f_squared", "invert", "is_in_4Z",
    "kernel_oracle", "make_element", "membership_A", "membership_bound",
    "normal_form", "normal_form_reconstruct", "p_k",
    "polynomial_r_coordinates", "project", "q_n", "r_coordinates",
    "r_minus", "r_plus", "reset_polynomial_tables", "rho_bracket",
    "ring_arith", "shape_remark_report", "split_n", "structure_set",
    "t_bar", "t_to_polynomial", "valuation_from_text", "valuation_to_text",
    "verify_A_equals_B", "w_l", "x_polynomial",
}


def test_package_exports_each_layer_name_once():
    assert len(EXPORTS) == 63
    assert set(lensring.__all__) == EXPORTS
    assert len(lensring.__all__) == len(set(lensring.__all__))
    assert "cli" not in lensring.__all__
    layers = (polynomials, ring, structure, valuation)
    for module in layers:
        assert len(module.__all__) == len(set(module.__all__))
    for name in EXPORTS - {"__version__"}:
        [home] = [m for m in layers if name in m.__all__]
        assert getattr(lensring, name) is getattr(home, name)


HUGE = 1 << 20000  # 6021 decimal digits
# Python 3.11 and later refuse int-to-str past a digit limit (4300 by
# default); 3.10 has none, and there repr names the value in full
LIMITED = getattr(sys, "get_int_max_str_digits", lambda: 0)() != 0


@pytest.mark.parametrize("call, error, phrase", [
    pytest.param(lambda: Valuation(0, HUGE, 3), ValueError,
                 "b must satisfy 0 <= b < 2^3, got ", id="Valuation"),
    pytest.param(lambda: make_element(-HUGE, [1]), ValueError,
                 "level K must be a positive integer, got ",
                 id="make_element"),
    pytest.param(lambda: LevelProjection(-HUGE, [1]), ValueError,
                 "projection level must be >= 0, got ", id="LevelProjection"),
    pytest.param(lambda: project(make_element(3, [1]), HUGE), ValueError,
                 "projection level must satisfy 0 <= l <= 2, got ",
                 id="project"),
    pytest.param(lambda: kernel_oracle(9, 3, HUGE), ValueError,
                 "k must be a positive odd integer, got ", id="kernel_oracle"),
    pytest.param(lambda: brute_force_A(3, 1, -HUGE), ValueError,
                 "d must be an integer >= 3, got ", id="brute_force_A"),
    pytest.param(lambda: evaluate_at_f_squared((1,), 3, 1, "odd", HUGE),
                 ValueError, "m must be 1 or 2 in odd mode, got ",
                 id="evaluate_at_f_squared"),
    pytest.param(lambda: r_minus(-HUGE), ValueError,
                 "n must be a non-negative integer, got ", id="r_minus"),
    pytest.param(lambda: p_k(-HUGE), ValueError,
                 "k must be a positive integer, got ", id="p_k"),
    pytest.param(lambda: split_n(-HUGE), ValueError,
                 "n must be a non-negative integer, got ", id="split_n"),
    pytest.param(lambda: shape_remark_report(-HUGE), ValueError,
                 "n must be a non-negative integer, got ",
                 id="shape_remark_report"),
    pytest.param(lambda: x_polynomial(-HUGE), ValueError,
                 "m must be a non-negative integer, got ", id="x_polynomial"),
    pytest.param(lambda: criterion_necessary_search(
        evaluate_at_f_squared((1,), 3, 1, "odd"), -HUGE), ValueError,
        "max_power must be a non-negative integer, got ",
        id="criterion_necessary_search"),
    pytest.param(lambda: cli.tables_document(-HUGE, "-"), ValueError,
                 "max_n must be a non-negative integer, got ",
                 id="tables_document"),
    pytest.param(lambda: IntPolynomial((Fraction(HUGE, 3),)), TypeError,
                 "coefficients must be ints, got ", id="IntPolynomial"),
    pytest.param(lambda: kernel_oracle(9, HUGE), BudgetExceededError,
                 "the kernel lies in (Z_2^", id="kernel_oracle_budget"),
])
def test_messages_name_huge_integers(call, error, phrase):
    # formatting the message must not raise Python's int-to-str ValueError
    with pytest.raises(error) as info:
        call()
    text = str(info.value)
    assert text.startswith(phrase)
    assert "Exceeds the limit" not in text
    if LIMITED:
        assert "bits>" in text


def test_shown_is_repr_below_the_digit_limit():
    # values under the limit print in full (test_ring pins "got 8")
    with pytest.raises(ValueError, match=r"got -3$"):
        p_k(-3)
    with pytest.raises(TypeError, match=r"got Fraction\(1, 3\)$"):
        IntPolynomial((Fraction(1, 3),))
    assert ring._shown("x") == "'x'"
    if LIMITED:
        assert ring._shown(-HUGE) == "<negative int of 20001 bits>"
        assert ring._shown(Fraction(1, HUGE)) == "<Fraction of 20001 bits>"


@contextlib.contextmanager
def no_digit_limit():
    """Python's int-to-str digit limit lifted inside the block only."""
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if old:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old:
            sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_structure_set_prints_wide_integers_in_full(capsys, fmt):
    # N = 2^20000 and the free rank 2^19999 - 1 pass the digit limit; both
    # formats print them in full, JSON with json.dumps's own bytes
    argv = ["structure-set", "--d", "9", "--K", "20000", "--format", fmt]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    with no_digit_limit():
        if fmt == "text":
            lines = captured.out.splitlines()
            assert f"N = {HUGE}" in lines
            assert f"free_rank = {HUGE // 2 - 1}" in lines
        else:
            doc = json.loads(captured.out)
            assert (doc["N"], doc["free_rank"]) == (HUGE, HUGE // 2 - 1)
            assert captured.out == json.dumps(doc, sort_keys=True,
                                              indent=2) + "\n"


def test_wide_element_round_trips_through_text():
    # coefficients with 15k-bit numerators and denominators, past the limit
    den = 3 ** 9500
    g = make_element(3, [Fraction(1, den), 5, Fraction(-HUGE // 2 - 1, 7),
                         0, Fraction(den + 1, 2)])
    assert max(g.den.bit_length(), *(abs(v).bit_length() for v in g.nums)) \
        > 15000
    text = ring.element_to_text(g)
    assert ring.element_from_text(text) == g
    with no_digit_limit():
        assert text == "K=3; " + ",".join(
            str(c.numerator) if c.denominator == 1 else str(c)
            for c in g.coeffs)
        assert ring.element_from_text(text) == g
