"""Exact scalar field over the declared parameters.

Reference arithmetic comes from sympy (oracles.sym_eval / sym_equal);
the library must agree on every sampled expression and round-trip its
own canonical strings.
"""

import random
from fractions import Fraction

import pytest

from oracles import sym_equal, sym_eval
from polystrat.scalars import (
    EvaluationError,
    ParamRegistry,
    Scalar,
    ScalarError,
    ScalarParseError,
    monomial_rows,
    over_common_denominator,
    parse_scalar,
)


@pytest.fixture(scope="module")
def reg():
    return ParamRegistry(["p1", "p2", "p5"])


def test_default_point_uses_consecutive_primes(reg):
    assert reg.point == (Fraction(2), Fraction(3), Fraction(5))


def test_point_overrides():
    r = ParamRegistry(["p2", "p5"], {"p2": Fraction(1, 2)})
    assert r.value("p2") == Fraction(1, 2)
    assert r.value("p5") == 3  # second prime, untouched


def test_parse_negated_quotient(reg):
    s = reg.parse("-p5/p2")
    assert str(s) == "-p5/p2"
    assert s.evaluate({"p1": 2, "p2": 3, "p5": 5}) == Fraction(-5, 3)
    assert (-s) == reg.parse("p5/p2")


def test_parse_zero_is_the_zero_scalar(reg):
    assert reg.parse("0").is_zero()
    assert reg.parse("0") == reg.zero()


def test_gcd_normalization_collapses_equal_forms(reg):
    # (1/2)*p1 + p1/2 and p1 must normalize identically
    a = reg.parse("(1/2)*p1 + p1/2")
    assert a == reg.param("p1")
    assert str(a) == "p1"
    assert sym_equal(reg, "(1/2)*p1 + p1/2", str(a))


def test_evaluate_pinned_values():
    r = ParamRegistry(["p2", "p5"], {"p2": Fraction(1, 2), "p5": 3})
    assert r.parse("1/p2").evaluate() == 2
    assert r.parse("p5*p2").evaluate() == Fraction(3, 2)
    assert r.parse("p2 - p2").evaluate() == 0
    assert r.parse("p2 - p2").is_zero()


def test_is_rational_constant(reg):
    assert not reg.parse("1/p2").is_rational_constant()
    assert reg.parse("7/3").is_rational_constant()
    assert reg.parse("7/3").as_fraction() == Fraction(7, 3)
    assert reg.parse("p2/p2").is_rational_constant()
    assert reg.parse("p2/p2") == reg.one()


def test_sign_at_evaluation_point():
    r = ParamRegistry(["p2", "p5"], {"p2": Fraction(1, 2), "p5": 3})
    assert r.parse("p5").sign() == 1
    assert r.parse("-p2").sign() == -1
    assert r.parse("p2 - p2").sign() == 0


def test_canonical_sum_ordering(reg):
    # constants trail parameter terms: -p2 - 1, not -1 - p2
    assert str(reg.parse("-1 - p2")) == "-p2 - 1"
    assert str(reg.parse("1 + p1")) == "p1 + 1"


def test_no_power_operator_in_canonical_strings(reg):
    s = reg.param("p1") * reg.param("p1") * reg.param("p2")
    text = str(s)
    assert "^" not in text and "**" not in text
    assert reg.parse(text) == s


def test_substitute(reg):
    s = reg.parse("p5/p2 - p1")
    t = s.substitute({"p2": 1, "p5": 1})
    assert str(t) == "-p1 + 1"
    assert t.evaluate({"p1": 3}) == -2
    with pytest.raises(EvaluationError):
        reg.parse("1/(p2 - 1)").substitute({"p2": 1})


def test_parse_errors(reg):
    for bad in ["p7", "1 +", "(p1", "p1 p2", "", "2 ** 3"]:
        with pytest.raises(ScalarParseError):
            reg.parse(bad)


def test_division_by_zero(reg):
    with pytest.raises(ZeroDivisionError):
        reg.parse("p1") / reg.zero()
    with pytest.raises(ScalarParseError):
        reg.parse("1/(p1 - p1)")


def test_cross_registry_mix_rejected(reg):
    other = ParamRegistry(["p1"])
    with pytest.raises(ScalarError):
        reg.param("p1") + other.param("p1")


def _random_expr(rng, depth):
    """Expression string over p1, p2 with all four operations."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["p1", "p2", str(rng.randrange(-4, 5)),
                           f"{rng.randrange(1, 5)}/{rng.randrange(1, 5)}"])
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    op = rng.choice("+-*/")
    if op == "/":
        # keep denominators nonzero at the point and as polynomials
        b = f"({b})*({b}) + {rng.randrange(1, 4)}"
    return f"({a}) {op} ({b})"


def test_random_expressions_match_sympy():
    rng = random.Random(20250825)
    r = ParamRegistry(["p1", "p2"])
    for _ in range(120):
        text = _random_expr(rng, 3)
        s = r.parse(text)
        assert s.evaluate() == sym_eval(r, text)
        # canonical string round-trips to the same element
        assert r.parse(str(s)) == s
        assert sym_equal(r, text, str(s))


def test_field_axioms_random():
    rng = random.Random(7)
    r = ParamRegistry(["p1", "p2"])
    pool = [r.parse(_random_expr(rng, 2)) for _ in range(12)]
    one = r.one()
    for _ in range(80):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a - a == r.zero()
        if not b.is_zero():
            assert (a / b) * b == a
            assert b / b == one


def test_over_common_denominator(reg):
    entries = [reg.parse("1/p2"), reg.parse("p5/p1"), reg.parse("3")]
    nums, den = over_common_denominator(entries)
    assert len(nums) == 3
    # each numerator over the shared denominator reproduces its entry
    for s, num in zip(entries, nums):
        assert Scalar(reg, num, den) == s


def test_monomial_rows(reg):
    entries = [reg.parse("1/p2"), reg.parse("p5/p1"), reg.parse("2/p2"),
               reg.parse("0")]
    rows = monomial_rows(entries)
    # one row per monomial of the numerators over the denominator p1*p2,
    # entry i is that monomial's coefficient in entry i's numerator
    assert sorted(map(tuple, rows)) == [(0, 1, 0, 0), (1, 0, 2, 0)]
    # 1/p2 and 2/p2 are Q-dependent; the vector (2, 0, -1, 0) kills every row
    assert all(2 * r[0] - r[2] == 0 for r in rows)
    assert monomial_rows([]) == []


def test_hash_consistent_with_eq(reg):
    a = reg.parse("(1/2)*p1 + p1/2")
    b = reg.param("p1")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
