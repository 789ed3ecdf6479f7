"""Exact scalar field over the declared parameters.

Reference arithmetic comes from sympy (oracles.sym_eval / sym_equal);
the library must agree on every sampled expression and round-trip its
own canonical strings.  Every Scalar the library builds, by arithmetic,
by mat_solve or as an A_I entry, stores int coefficients only: a
primitive numerator and denominator with positive leading coefficients
under one Fraction content.
"""

import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest

from oracles import pair_add, sym_element, sym_equal, sym_eval, sym_gcd
from polystrat.ambient import admissible_index_sets, change_of_basis
from polystrat.linalg import SingularMatrixError, mat_solve
from polystrat.report import parse_spec
from polystrat.scalars import (
    EvaluationError,
    ParamRegistry,
    Scalar,
    ScalarError,
    ScalarParseError,
    dot,
    monomial_rows,
    _p_gcd,
    _p_lead,
    _p_mul,
    over_common_denominator,
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


def test_constant_strings_match_the_polynomial_route(reg):
    # str of a rational constant takes a short route; it must print what
    # the general numerator route prints, and parse back
    for c in (0, 1, -1, Fraction(7, 3), Fraction(-7, 3), 10 ** 30,
              -(10 ** 30) - 1, Fraction(2 ** 70, 3 ** 41)):
        s = reg.scalar(c)
        text = str(s)
        assert text == s._poly_str(s._num, s._c)
        assert text == str(Fraction(c))
        assert reg.parse(text) == s
    # sums and products that cancel to constants take the same route
    assert str(reg.parse("p1 - p1")) == "0"
    assert str(reg.parse("p1/p1")) == "1"
    assert str(reg.parse("(2 - 2*p2)/(3*p2 - 3)")) == "-2/3"


def test_substitute(reg):
    s = reg.parse("p5/p2 - p1")
    t = s.substitute({"p2": 1, "p5": 1})
    assert str(t) == "-p1 + 1"
    assert t.evaluate({"p1": 3}) == -2
    with pytest.raises(EvaluationError):
        reg.parse("1/(p2 - 1)").substitute({"p2": 1})


def test_unknown_parameter_names_rejected(reg):
    s = reg.parse("p1 + p2")
    for call in (lambda: s.evaluate({"z": 3}),
                 lambda: s.evaluate({"p1": 1, "z": 3}),
                 lambda: s.substitute({"z": 1})):
        with pytest.raises(ScalarError,
                           match="value given for unknown parameter 'z'"):
            call()


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


def _random_term_poly(rng, arity, terms, degree=3):
    """Random terms c * m, c a small nonzero Fraction, m of degree <= degree
    in each parameter."""
    poly = {}
    for _ in range(terms):
        m = tuple(rng.randint(0, degree) for _ in range(arity))
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3))
        poly[m] = poly.get(m, Fraction(0)) + c
    return {m: c for m, c in poly.items() if c}


def test_gcd_matches_sympy():
    """Single terms against multi-term polynomials, constants and zero."""
    rng = random.Random(5)
    single = 0
    for _ in range(300):
        arity = rng.randint(1, 3)
        a, b = (_random_term_poly(rng, arity, rng.choice([0, 1, 1, 2, 3, 4]))
                for _ in range(2))
        if rng.random() < 0.3:
            # a common factor, so the gcd is not a bare monomial
            f = _random_term_poly(rng, arity, rng.randint(1, 3))
            a, b = _p_mul(a, f), _p_mul(b, f)
        if rng.random() < 0.15:
            a = {(0,) * arity: Fraction(rng.randint(-5, 5) or 1, 2)}
        single += len(a) == 1 or len(b) == 1
        want = sym_gcd(a, b, arity)
        assert _p_gcd(a, b) == want, (a, b)
        assert _p_gcd(b, a) == want, (a, b)
    assert single > 100


def _random_dot_operand(rng, reg, dens):
    """A numerator of up to three terms over one of dens."""
    return Scalar(reg, _random_term_poly(rng, reg.arity, rng.randint(0, 3), 1),
                  rng.choice(dens))


def test_dot_matches_term_by_term_sum_and_sympy():
    """dot normalizes once; the canonical form makes that the same string."""
    rng = random.Random(14)
    for _ in range(300):
        reg = ParamRegistry(["p1", "p2", "p3"][:rng.randint(1, 3)])
        # one two- or three-term denominator and two single terms, as in
        # A_I, whose entries share det M_I
        dens = []
        while len(dens) < 3:
            den = _random_term_poly(rng, reg.arity,
                                    1 if dens else rng.randint(2, 3), 1)
            if den:
                dens.append(den)
        k = rng.randint(1, 6)
        u = [_random_dot_operand(rng, reg, dens) for _ in range(k)]
        if rng.random() < 0.5:
            v = [rng.randint(-3, 3) for _ in range(k)]
        else:
            v = [_random_dot_operand(rng, reg, dens) for _ in range(k)]
        got = dot(u, v)
        assert str(got) == str(reduce(pair_add, (a * b for a, b in zip(u, v)),
                                      reg.zero())), (u, v)
        text = " + ".join(f"({a})*({b})" for a, b in zip(u, v))
        assert sym_element(reg, str(got)) == sym_element(reg, text), (u, v)


def _random_pair_operand(rng, reg, kind, shared):
    """A Scalar of the given kind: zero, a rational constant, a numerator
    over the pair's shared denominator, or over a denominator of its own."""
    if kind == "zero":
        return reg.zero()
    if kind == "constant":
        return reg.scalar(Fraction(rng.choice([-5, -2, -1, 1, 3, 4]),
                                   rng.randint(1, 4)))
    num = _random_term_poly(rng, reg.arity, rng.randint(1, 3), 2)
    den = shared if kind == "shared" else _random_term_poly(
        rng, reg.arity, rng.randint(1, 2), 1)
    one = {(0,) * reg.arity: 1}
    return Scalar(reg, num or one, den or one)


def test_add_and_sub_match_the_pairwise_sum_and_sympy():
    """+ and - go through dot; the canonical form makes them equal, field
    for field, to the pairwise sum over the product of the denominators."""
    rng = random.Random(22)
    kinds = [("shared", "shared")] * 4 + [("own", "own")] * 2 + [
        ("zero", "shared"), ("own", "zero"), ("constant", "own"),
        ("shared", "constant"), ("constant", "constant")]
    seen = {"zero": 0, "constant": 0, "one-term": 0, "multi-term": 0,
            "coprime": 0}
    for _ in range(300):
        reg = ParamRegistry(["p1", "p2", "p3"][:rng.randint(1, 3)])
        shared = _random_term_poly(rng, reg.arity, rng.randint(1, 3), 1)
        ka, kb = rng.choice(kinds)
        a = _random_pair_operand(rng, reg, ka, shared)
        b = _random_pair_operand(rng, reg, kb, shared)
        for k in (ka, kb):
            if k in ("zero", "constant"):
                seen[k] += 1
        unit = reg._unit
        if a._den == b._den != unit:
            seen["one-term" if len(a._den) == 1 else "multi-term"] += 1
        elif unit not in (a._den, b._den) and _p_gcd(a._den,
                                                     b._den) == unit:
            seen["coprime"] += 1
        for got, want, text in (
                (a + b, pair_add(a, b), f"({a}) + ({b})"),
                (a - b, pair_add(a, -b), f"({a}) - ({b})"),
                (b - a, pair_add(b, -a), f"({b}) - ({a})")):
            assert (got._c, got._num, got._den) == (
                want._c, want._num, want._den), (a, b)
            assert str(got) == str(want), (a, b)
            assert hash(got) == hash(want), (a, b)
            assert sym_element(reg, str(got)) == sym_element(reg, text), (a, b)
    assert min(seen.values()) >= 10, seen


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
    # each row is cleared by its own least common denominator:
    # (p1/2 + 1/3, p1/4) has numerator rows (1/2, 1/4) and (1/3, 0)
    frac = [reg.parse("p1/2 + 1/3"), reg.parse("p1/4")]
    rows = monomial_rows(frac)
    assert sorted(map(tuple, rows)) == [(1, 0), (2, 1)]
    assert all(type(x) is int for row in rows for x in row)


def test_hash_consistent_with_eq(reg):
    a = reg.parse("(1/2)*p1 + p1/2")
    b = reg.param("p1")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# -- the integer representation -----------------------------------------------

def assert_integer_representation(s):
    """int coefficients, primitive parts with positive leads, Fraction values."""
    assert type(s._c) is Fraction, s
    for poly in (s._num, s._den):
        # never a Fraction, nor a float from a stray int / int
        assert all(type(c) is int for c in poly.values()), (s, poly)
        if poly:
            assert gcd(*poly.values()) == 1, (s, poly)
            assert poly[_p_lead(poly)] > 0, (s, poly)
    assert s._den, s
    # a generic point, where no sampled denominator vanishes
    point = {nm: Fraction(10007 + i, 7919)
             for i, nm in enumerate(s.registry.names)}
    assert type(s.evaluate(point)) is Fraction, s
    if s.is_rational_constant():
        assert type(s.as_fraction()) is Fraction, s
        assert s._den == {s.registry._zero_mono: 1}


def test_arithmetic_keeps_integer_coefficients():
    rng = random.Random(41)
    r = ParamRegistry(["p1", "p2"])
    pool = [r.parse(_random_expr(rng, 2)) for _ in range(16)]
    pool += [r.zero(), r.one(), r.scalar(Fraction(-3, 4)), r.param("p2"),
             r.parse("(p1 + 2)/(6*p2 - 4)")]
    for _ in range(150):
        a, b = rng.choice(pool), rng.choice(pool)
        results = [a + b, a - b, a * b, -a, a * Fraction(2, 3), 1 - a,
                   a.substitute({"p2": Fraction(5, 2)}),
                   dot([a, b], [rng.randint(-3, 3), rng.randint(-3, 3)]),
                   dot([a, b], [b, 2])]
        if b:
            results += [a / b, 3 / b]
        for x in results:
            assert_integer_representation(x)
    # the public constructor takes Fraction coefficients and converts them
    s = Scalar(r, {(1, 0): Fraction(1, 2), (0, 0): Fraction(-3, 4)},
               {(0, 1): Fraction(-2, 3)})
    assert_integer_representation(s)
    assert str(s) == "(-3/4*p1 + 9/8)/p2"


def test_mat_solve_keeps_integer_coefficients():
    rng = random.Random(43)
    r = ParamRegistry(["p", "q"])
    pool = [r.parse(t) for t in ("p", "q", "1/2", "-3", "p/(q + 1)",
                                 "(2*p - 1)/3", "1/(p*q - 2)", "0")]
    solved = 0
    for _ in range(50):
        n = rng.randint(1, 3)
        a = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        b = [[rng.choice(pool) for _ in range(2)] for _ in range(n)]
        try:
            x = mat_solve(a, b)
        except SingularMatrixError:
            continue
        solved += 1
        for row in x:
            for s in row:
                assert_integer_representation(s)
    assert solved > 25


def test_change_of_basis_keeps_integer_coefficients(tent, cross3,
                                                    bench_inputs):
    # tent and the exact-scale workload's cross-polytopes at seed 1
    cross4 = parse_spec(bench_inputs.cross_polytope(4, random.Random(2)))
    for p in (tent[0], cross3[0], cross4[0]):
        for i_set in admissible_index_sets(p):
            for row in change_of_basis(p, i_set):
                for s in row:
                    assert_integer_representation(s)


def test_dot_with_integer_weights():
    """Weights as ints, as Scalars and as a term-by-term sum agree."""
    rng = random.Random(17)
    zero = negative = all_zero = 0
    for i in range(120):
        reg = ParamRegistry(["p1", "p2", "p3"][:rng.randint(1, 3)])
        dens = []
        while len(dens) < 3:
            den = _random_term_poly(rng, reg.arity,
                                    1 if dens else rng.randint(2, 3), 1)
            if den:
                dens.append(den)
        k = rng.randint(1, 5)
        u = [_random_dot_operand(rng, reg, dens) for _ in range(k)]
        w = [0] * k if i % 10 == 0 else [rng.randint(-3, 3) for _ in range(k)]
        got = dot(u, w)
        assert got == dot(u, [reg.scalar(x) for x in w]), (u, w)
        want = sum((a * x for a, x in zip(u, w)), reg.zero())
        assert str(got) == str(want), (u, w)
        assert_integer_representation(got)
        zero += 0 in w
        negative += any(x < 0 for x in w)
        all_zero += not any(w)
        if not any(w):
            assert got.is_zero()
    assert zero > 20 and negative > 50 and all_zero >= 12
