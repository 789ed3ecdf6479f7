"""Exact arithmetic in the rational-function field QQ(p_1, ..., p_m).

Scalars are quotients of multivariate polynomials with Fraction
coefficients over a fixed, ordered set of formal parameters.  Every value
is kept in a canonical form (reduced fraction, fixed monomial order,
primitive integer denominator with positive leading coefficient), so
equality and hashing are plain structural comparisons and serialization
is byte-stable.

Two kinds of questions are answered about a scalar:

* identity questions (equality, rationality) are decided symbolically,
  treating the parameters as algebraically independent reals;
* sign and ordering questions are decided by evaluating at the
  registry's rational evaluation point, which defaults to distinct
  primes (first declared parameter -> 2, second -> 3, ...).

Internally a polynomial is a dict mapping exponent tuples (one slot per
registered parameter) to nonzero Fractions.  A gcd with a single term is
the monomial of common exponents (a term's divisors are terms), so a
one-term denominator c * m normalizes by division term by term.  Every
sum of products goes through dot, which adds the products of numerators
over one common denominator and normalizes once; the canonical form
makes that the same Scalar as a sum normalized after every term.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Iterable, Mapping

_ZERO = Fraction(0)
_ONE = Fraction(1)

_IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")


def _next_prime(n: int) -> int:
    n += 1
    while True:
        for q in range(2, int(n**0.5) + 1):
            if n % q == 0:
                break
        else:
            return n
        n += 1


def _default_point(count: int) -> list[Fraction]:
    vals = []
    p = 1
    for _ in range(count):
        p = _next_prime(p)
        vals.append(Fraction(p))
    return vals


# ---------------------------------------------------------------------------
# raw polynomial arithmetic on {exponent tuple: Fraction} dicts


def _mono_key(m: tuple[int, ...]) -> tuple:
    return (sum(m), m)


def _p_lead(a: dict) -> tuple[int, ...]:
    return max(a, key=_mono_key)


def _p_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, _ZERO) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _p_neg(a: dict) -> dict:
    return {m: -c for m, c in a.items()}


def _p_sub(a: dict, b: dict) -> dict:
    return _p_add(a, _p_neg(b))


def _p_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m, _ZERO) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _p_scale(a: dict, c: Fraction) -> dict:
    if not c:
        return {}
    return {m: cc * c for m, cc in a.items()}


def _p_div_exact(a: dict, b: dict) -> dict:
    """Quotient a/b when the division is exact; raises otherwise."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(b) == 1:
        (lb, cb), = b.items()
        q = {tuple(x - y for x, y in zip(m, lb)): c / cb for m, c in a.items()}
        if any(e < 0 for m in q for e in m):
            raise ArithmeticError("inexact polynomial division")
        return q
    q: dict = {}
    r = dict(a)
    lb = _p_lead(b)
    cb = b[lb]
    while r:
        lr = _p_lead(r)
        m = tuple(x - y for x, y in zip(lr, lb))
        if any(e < 0 for e in m):
            raise ArithmeticError("inexact polynomial division")
        c = r[lr] / cb
        q[m] = q.get(m, _ZERO) + c
        for mb, cbb in b.items():
            mm = tuple(x + y for x, y in zip(m, mb))
            s = r.get(mm, _ZERO) - c * cbb
            if s:
                r[mm] = s
            else:
                r.pop(mm, None)
    return {m: c for m, c in q.items() if c}


def _clear_denominators(values):
    """(D, [D * x for x in values]) with D the least common denominator."""
    values = [x if isinstance(x, (int, Fraction)) else Fraction(x)
              for x in values]
    den = _int_lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def _p_signed_content(a: dict) -> Fraction:
    """Rational c with a/c primitive integer and positive leading coefficient."""
    if not a:
        return _ONE
    den, ints = _clear_denominators(a.values())
    content = Fraction(_int_gcd(*ints), den)
    if a[_p_lead(a)] < 0:
        content = -content
    return content


def _p_prim_int(a: dict) -> dict:
    return _p_scale(a, 1 / _p_signed_content(a)) if a else {}


def _main_var(a: dict, b: dict) -> int | None:
    """Highest variable index with positive degree in a or b, else None."""
    best = None
    for p in (a, b):
        for m in p:
            for i in range(len(m) - 1, -1, -1):
                if m[i] > 0:
                    if best is None or i > best:
                        best = i
                    break
    return best


def _deg_in(a: dict, v: int) -> int:
    return max(m[v] for m in a) if a else -1


def _uni_coeffs(a: dict, v: int) -> dict[int, dict]:
    """View of a as a polynomial in variable v with polynomial coefficients."""
    out: dict[int, dict] = {}
    for m, c in a.items():
        rest = m[:v] + (0,) + m[v + 1:]
        out.setdefault(m[v], {})[rest] = c
    return out


def _lead_coeff_in(a: dict, v: int) -> dict:
    d = _deg_in(a, v)
    return {m[:v] + (0,) + m[v + 1:]: c for m, c in a.items() if m[v] == d}


def _shift(v: int, e: int, arity: int) -> dict:
    m = [0] * arity
    m[v] = e
    return {tuple(m): _ONE}


def _prem(f: dict, g: dict, v: int, arity: int) -> dict:
    """Pseudo-remainder of f by g with respect to variable v."""
    dg = _deg_in(g, v)
    lg = _lead_coeff_in(g, v)
    while f and _deg_in(f, v) >= dg:
        df = _deg_in(f, v)
        lf = _lead_coeff_in(f, v)
        f = _p_sub(_p_mul(f, lg), _p_mul(_p_mul(lf, _shift(v, df - dg, arity)), g))
    return f


def _content_in(a: dict, v: int) -> dict:
    cont: dict = {}
    for coeff in _uni_coeffs(a, v).values():
        cont = _p_gcd(cont, coeff)
    return cont


def _p_gcd(a: dict, b: dict) -> dict:
    """Polynomial gcd, normalized primitive-integer with positive lead."""
    if a and b and (len(a) == 1 or len(b) == 1):
        # a term's divisors are terms: the gcd is the common monomial
        return {tuple(map(min, zip(*a, *b))): _ONE}
    a = _p_prim_int(a)
    b = _p_prim_int(b)
    if not a:
        return b
    if not b:
        return a
    v = _main_var(a, b)
    if v is None:
        # both are constants; primitive constants are 1
        return a
    arity = len(next(iter(a)))
    ca = _content_in(a, v)
    cb = _content_in(b, v)
    cg = _p_gcd(ca, cb)
    f = _p_div_exact(a, ca)
    g = _p_div_exact(b, cb)
    while g:
        r = _prem(f, g, v, arity)
        # the rational content too, or coefficients grow exponentially
        f, g = g, (_p_prim_int(_p_div_exact(r, _content_in(r, v)))
                   if r else {})
    return _p_prim_int(_p_mul(cg, f))


def _p_lcm(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    return _p_prim_int(_p_mul(a, _p_div_exact(b, _p_gcd(a, b))))


def _p_eval(a: dict, point: tuple[Fraction, ...]) -> Fraction:
    total = _ZERO
    for m, c in a.items():
        term = c
        for v, e in zip(point, m):
            if e:
                term *= v**e
        total += term
    return total


# ---------------------------------------------------------------------------


class ScalarError(ValueError):
    pass


class ScalarParseError(ScalarError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ScalarError):
    pass


class ParamRegistry:
    """Ordered set of formal parameters plus a rational evaluation point."""

    __slots__ = ("_names", "_index", "_point", "_zero_mono")

    def __init__(self, names: Iterable[str] = (),
                 values: Mapping[str, object] | None = None):
        names = tuple(names)
        seen = set()
        for nm in names:
            if not _IDENT_RE.match(nm):
                raise ScalarError(f"invalid parameter name {nm!r}")
            if nm in seen:
                raise ScalarError(f"duplicate parameter name {nm!r}")
            seen.add(nm)
        self._names = names
        self._index = {nm: i for i, nm in enumerate(names)}
        point = _default_point(len(names))
        self._check_names(values or {})
        for nm, val in (values or {}).items():
            point[self._index[nm]] = Fraction(val)
        self._point = tuple(point)
        self._zero_mono = (0,) * len(names)

    def _check_names(self, values: Mapping[str, object]):
        for nm in values:
            if nm not in self._index:
                raise ScalarError(f"value given for unknown parameter {nm!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def arity(self) -> int:
        return len(self._names)

    @property
    def point(self) -> tuple[Fraction, ...]:
        return self._point

    def index(self, name: str) -> int:
        return self._index[name]

    def value(self, name: str) -> Fraction:
        return self._point[self._index[name]]

    def scalar(self, x) -> "Scalar":
        """Constant scalar from an int, Fraction or parseable string."""
        if isinstance(x, Scalar):
            if x.registry is not self:
                raise ScalarError("scalar belongs to a different registry")
            return x
        if isinstance(x, str):
            return parse_scalar(self, x)
        c = Fraction(x)
        num = {self._zero_mono: c} if c else {}
        return Scalar(self, num, {self._zero_mono: _ONE}, _normalized=True)

    def param(self, name: str) -> "Scalar":
        i = self._index.get(name)
        if i is None:
            raise ScalarError(f"unknown parameter {name!r}")
        mono = tuple(1 if j == i else 0 for j in range(self.arity))
        return Scalar(self, {mono: _ONE}, {self._zero_mono: _ONE},
                      _normalized=True)

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def parse(self, text: str) -> "Scalar":
        return parse_scalar(self, text)


class Scalar:
    """Element of QQ(p_1, ..., p_m) in canonical form.

    Immutable and hashable.  Arithmetic accepts ints and Fractions on
    either side.  str() emits a string that parse_scalar maps back to an
    equal scalar (the grammar has no power operator, so repeated factors
    are spelled out: p1*p1).
    """

    __slots__ = ("registry", "_num", "_den", "_key")

    def __init__(self, registry: ParamRegistry, num: dict, den: dict,
                 _normalized: bool = False):
        self.registry = registry
        if not _normalized:
            num, den = self._normalize(num, den, registry)
        self._num = num
        self._den = den
        self._key = (tuple(sorted(num.items())), tuple(sorted(den.items())))

    @staticmethod
    def _normalize(num: dict, den: dict, registry: ParamRegistry):
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        if not num:
            return {}, {registry._zero_mono: _ONE}
        g = _p_gcd(num, den)
        if len(g) > 1 or g.get(registry._zero_mono) != _ONE:
            num = _p_div_exact(num, g)
            den = _p_div_exact(den, g)
        c = _p_signed_content(den)
        if c != _ONE:
            num = _p_scale(num, 1 / c)
            den = _p_scale(den, 1 / c)
        return num, den

    # -- introspection ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_rational_constant(self) -> bool:
        zero = self.registry._zero_mono
        return self._den == {zero: _ONE} and set(self._num) <= {zero}

    def is_integer(self) -> bool:
        return (self.is_rational_constant()
                and self.as_fraction().denominator == 1)

    def as_fraction(self) -> Fraction:
        if not self.is_rational_constant():
            raise ScalarError(f"{self} is not a rational constant")
        return self._num.get(self.registry._zero_mono, _ZERO)

    def evaluate(self, values: Mapping[str, object] | None = None) -> Fraction:
        """Exact value at the registry point (or at an override mapping)."""
        if values is None:
            point = self.registry.point
        else:
            self.registry._check_names(values)
            point = tuple(Fraction(values.get(nm, self.registry.value(nm)))
                          for nm in self.registry.names)
        den = _p_eval(self._den, point)
        if den == 0:
            raise EvaluationError(
                f"denominator of {self} vanishes at evaluation point {point}")
        return _p_eval(self._num, point) / den

    def sign(self) -> int:
        v = self.evaluate()
        return (v > 0) - (v < 0)

    def substitute(self, values: Mapping[str, object]) -> "Scalar":
        """Scalar with some parameters replaced by rational constants."""
        reg = self.registry
        reg._check_names(values)
        idx = {reg.index(nm): Fraction(v) for nm, v in values.items()}

        def sub(poly: dict) -> dict:
            out: dict = {}
            for m, c in poly.items():
                mm = list(m)
                for i, val in idx.items():
                    if mm[i]:
                        c = c * val ** mm[i]
                        mm[i] = 0
                key = tuple(mm)
                s = out.get(key, _ZERO) + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
            return out

        den = sub(self._den)
        if not den:
            raise EvaluationError("substitution makes the denominator zero")
        return Scalar(reg, sub(self._num), den)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.registry is not self.registry:
                raise ScalarError("scalars from different registries")
            return other
        if isinstance(other, (int, Fraction)):
            return self.registry.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = _p_add(_p_mul(self._num, o._den), _p_mul(o._num, self._den))
        return Scalar(self.registry, num, _p_mul(self._den, o._den))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.registry, _p_neg(self._num), self._den,
                      _normalized=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.registry, _p_mul(self._num, o._num),
                      _p_mul(self._den, o._den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(self.registry, _p_mul(self._num, o._den),
                      _p_mul(self._den, o._num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._key == o._key

    def __hash__(self):
        return hash(self._key)

    def __bool__(self):
        return bool(self._num)

    def __float__(self):
        return float(self.evaluate())

    # -- serialization ------------------------------------------------

    def _poly_str(self, poly: dict) -> str:
        if not poly:
            return "0"
        names = self.registry.names
        parts = []
        for m, c in sorted(poly.items(), key=lambda t: _mono_key(t[0]),
                           reverse=True):
            neg = c < 0
            ac = -c if neg else c
            factors = []
            if ac != 1 or not any(m):
                factors.append(str(ac))
            for nm, e in zip(names, m):
                factors.extend([nm] * e)
            s = "*".join(factors)
            if not parts:
                parts.append("-" + s if neg else s)
            else:
                parts.append((" - " if neg else " + ") + s)
        return "".join(parts)

    def __str__(self):
        ns = self._poly_str(self._num)
        if self._den == {self.registry._zero_mono: _ONE}:
            return ns
        if len(self._num) > 1:
            ns = f"({ns})"
        ds = self._poly_str(self._den)
        lead = _p_lead(self._den)
        atomic = (len(self._den) == 1 and self._den[lead] == 1
                  and sum(lead) == 1)
        if not atomic:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"Scalar({self})"


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)"
                       r"|(?P<op>[-+*/()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ScalarParseError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup == "int":
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def parse_scalar(registry: ParamRegistry, text: str) -> Scalar:
    """Parse +, -, *, /, parentheses, integers and parameter names."""
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx]

    def advance():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_expr() -> Scalar:
        value = parse_term()
        while peek()[0] == "op" and peek()[1] in "+-":
            op = advance()[1]
            rhs = parse_term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_term() -> Scalar:
        value = parse_factor()
        while peek()[0] == "op" and peek()[1] in "*/":
            kind, op, pos = advance()
            rhs = parse_factor()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ScalarParseError("division by a zero scalar", pos)
                value = value / rhs
        return value

    def parse_factor() -> Scalar:
        kind, val, pos = advance()
        if kind == "int":
            return registry.scalar(val)
        if kind == "name":
            try:
                return registry.param(val)
            except ScalarError:
                raise ScalarParseError(f"unknown parameter {val!r}", pos) from None
        if kind == "op" and val == "(":
            inner = parse_expr()
            kind2, val2, pos2 = advance()
            if not (kind2 == "op" and val2 == ")"):
                raise ScalarParseError("expected ')'", pos2)
            return inner
        if kind == "op" and val == "-":
            return -parse_factor()
        raise ScalarParseError("expected a number, parameter or '('", pos)

    result = parse_expr()
    kind, _, pos = peek()
    if kind != "end":
        raise ScalarParseError("trailing input", pos)
    return result


# spec-facing free functions


def over_common_denominator(scalars: Iterable[Scalar]):
    """Numerator polynomials of the given scalars over one common denominator.

    Returns (numerators, denominator) as raw term dicts; the i-th scalar
    equals numerators[i] / denominator.
    """
    scalars = list(scalars)
    if not scalars:
        return [], {}
    den: dict = {(0,) * scalars[0].registry.arity: _ONE}
    for s in scalars:
        if s._den != den:
            den = _p_lcm(den, s._den)
    nums = [s._num if s._den == den else
            _p_mul(s._num, _p_div_exact(den, s._den)) for s in scalars]
    return nums, den


def dot(u, v) -> Scalar:
    """sum_i u_i v_i, normalized once.

    u is a nonempty sequence of Scalars and v holds Scalars or ints.
    Each side is put over one common denominator; the products of the
    numerators are summed as polynomials into one Scalar.
    """
    reg = u[0].registry
    nu, du = over_common_denominator(u)
    nv, dv = over_common_denominator([reg.scalar(x) for x in v])
    num: dict = {}
    for a, b in zip(nu, nv):
        num = _p_add(num, _p_mul(a, b))
    return Scalar(reg, num, _p_mul(du, dv))


def monomial_rows(scalars: Iterable[Scalar]):
    """Per-monomial integer coefficient rows of scalars over one denominator.

    One row per monomial of the numerators, in sorted order; entry i is
    that monomial's coefficient in the numerator of the i-th scalar,
    times the row's least common denominator, so the Q-linear relations
    among the scalars are the vectors orthogonal to every row.
    """
    nums, _den = over_common_denominator(scalars)
    return [_clear_denominators([num.get(m, _ZERO) for num in nums])[1]
            for m in sorted({m for num in nums for m in num})]
