"""Exact arithmetic in the rational-function field QQ(p_1, ..., p_m).

Scalars are quotients of multivariate polynomials with integer
coefficients over a fixed, ordered set of formal parameters, times one
rational content.  Every value is kept in a canonical form (reduced
fraction, fixed monomial order, primitive integer numerator and
denominator with positive leading coefficients, the sign and the
rational factor in the content), so equality and hashing are plain
structural comparisons and serialization is byte-stable: str() folds
the content back into the numerator's coefficients.

Two kinds of questions are answered about a scalar:

* identity questions (equality, rationality) are decided symbolically,
  treating the parameters as algebraically independent reals;
* sign and ordering questions are decided by evaluating at the
  registry's rational evaluation point, which defaults to distinct
  primes (first declared parameter -> 2, second -> 3, ...).

Internally a polynomial is a dict mapping exponent tuples (one slot per
registered parameter) to nonzero ints, so sums, products, exact
divisions and gcds run on ints; only the content is a Fraction.  A gcd
with a single term is the monomial of common exponents (a term's
divisors are terms), so a one-term denominator c * m normalizes by
division term by term.  Every sum goes through dot, + and - included:
it adds the products of numerators over one common denominator and
normalizes once; the canonical form makes that the same Scalar as a sum
normalized after every term.
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
# raw polynomial arithmetic on {exponent tuple: int} dicts


def _mono_key(m: tuple[int, ...]) -> tuple:
    return (sum(m), m)


def _p_lead(a: dict) -> tuple[int, ...]:
    return max(a, key=_mono_key)


def _p_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) - c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _p_sum(polys) -> dict:
    out: dict = {}
    for a in polys:
        for m, c in a.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _p_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(int.__add__, ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _p_scale(a: dict, k: int) -> dict:
    if k == 1:
        return a
    return {m: c * k for m, c in a.items()} if k else {}


def _p_div_exact(a: dict, b: dict) -> dict:
    """Quotient a/b when it has integer coefficients; raises otherwise."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(b) == 1:
        (lb, cb), = b.items()
        if cb == 1 and not any(lb):
            return a
        q = {}
        for m, c in a.items():
            mq = tuple(map(int.__sub__, m, lb))
            q[mq], r = divmod(c, cb)
            if r or min(mq, default=0) < 0:
                raise ArithmeticError("inexact polynomial division")
        return q
    q = {}
    r = dict(a)
    lb = _p_lead(b)
    cb = b[lb]
    while r:
        lr = _p_lead(r)
        m = tuple(map(int.__sub__, lr, lb))
        c, rem = divmod(r[lr], cb)
        if rem or min(m) < 0:
            raise ArithmeticError("inexact polynomial division")
        q[m] = c
        for mb, cbb in b.items():
            mm = tuple(map(int.__add__, m, mb))
            s = r.get(mm, 0) - c * cbb
            if s:
                r[mm] = s
            else:
                r.pop(mm, None)
    return q


def _clear_denominators(values):
    """(D, [D * x for x in values]) with D the least common denominator."""
    values = [x if isinstance(x, (int, Fraction)) else Fraction(x)
              for x in values]
    den = _int_lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def _p_content(a: dict) -> int:
    """Integer c with a/c primitive and positive leading coefficient."""
    c = _int_gcd(*a.values())
    return -c if a[_p_lead(a)] < 0 else c


def _p_prim_int(a: dict) -> dict:
    """a over its signed content; a may have Fraction coefficients."""
    if not a:
        return {}
    a = dict(zip(a, _clear_denominators(a.values())[1]))
    c = _p_content(a)
    return {m: x // c for m, x in a.items()} if c != 1 else a


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
    return {tuple(m): 1}


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
        return {tuple(map(min, zip(*a, *b))): 1}
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
    """lcm of two primitive polynomials with positive leads, normalized."""
    return _p_mul(a, _p_div_exact(b, _p_gcd(a, b)))


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

    __slots__ = ("_names", "_index", "_point", "_zero_mono", "_unit")

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
        self._unit = {self._zero_mono: 1}

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
        return Scalar._of(self, c, self._unit if c else {}, self._unit)

    def param(self, name: str) -> "Scalar":
        i = self._index.get(name)
        if i is None:
            raise ScalarError(f"unknown parameter {name!r}")
        mono = tuple(1 if j == i else 0 for j in range(self.arity))
        return Scalar._of(self, _ONE, {mono: 1}, self._unit)

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def parse(self, text: str) -> "Scalar":
        return parse_scalar(self, text)


def _reduced(reg: ParamRegistry, num: dict, den: dict,
             scale=_ONE) -> "Scalar":
    """The Scalar scale * num / den for int term dicts, den nonzero.

    The signed integer contents of num and den move into the Fraction
    content, and their primitive parts are divided by their gcd.
    """
    if not num:
        return Scalar._of(reg, _ZERO, {}, reg._unit)
    g = _p_content(num)
    h = _p_content(den)
    if g != 1:
        num = {m: c // g for m, c in num.items()}
    if h != 1:
        den = {m: c // h for m, c in den.items()}
    if den != reg._unit and num != reg._unit:
        d = _p_gcd(num, den)
        if d != reg._unit:
            num = _p_div_exact(num, d)
            den = _p_div_exact(den, d)
    return Scalar._of(reg, Fraction(g * scale.numerator,
                                    h * scale.denominator), num, den)


class Scalar:
    """Element of QQ(p_1, ..., p_m) in canonical form.

    Immutable and hashable.  Arithmetic accepts ints and Fractions on
    either side.  str() emits a string that parse_scalar maps back to an
    equal scalar (the grammar has no power operator, so repeated factors
    are spelled out: p1*p1).
    """

    __slots__ = ("registry", "_c", "_num", "_den", "_hash")

    def __init__(self, registry: ParamRegistry, num: dict, den: dict):
        """num / den for term dicts with int or Fraction coefficients."""
        if not den:
            raise ZeroDivisionError("scalar with zero denominator")
        dn, ints = _clear_denominators(num.values())
        dd, dints = _clear_denominators(den.values())
        other = _reduced(registry, dict(zip(num, ints)),
                         dict(zip(den, dints)), Fraction(dd, dn))
        self._set(registry, other._c, other._num, other._den)

    def _set(self, registry, c, num, den):
        self.registry = registry
        self._c = c
        self._num = num
        self._den = den
        self._hash = None

    @classmethod
    def _of(cls, registry, c, num, den) -> "Scalar":
        """c * num / den, already canonical: no normalization."""
        s = object.__new__(cls)
        s._set(registry, c, num, den)
        return s

    # -- introspection ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_rational_constant(self) -> bool:
        unit = self.registry._unit
        return self._den == unit and (not self._num or self._num == unit)

    def is_integer(self) -> bool:
        return self.is_rational_constant() and self._c.denominator == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational_constant():
            raise ScalarError(f"{self} is not a rational constant")
        return self._c

    def evaluate(self, values: Mapping[str, object] | None = None) -> Fraction:
        """Exact value at the registry point (or at an override mapping)."""
        if values is None:
            if self.is_rational_constant():
                return self._c
            point = self.registry.point
        else:
            self.registry._check_names(values)
            point = tuple(Fraction(values.get(nm, self.registry.value(nm)))
                          for nm in self.registry.names)
        den = _p_eval(self._den, point)
        if den == 0:
            raise EvaluationError(
                f"denominator of {self} vanishes at evaluation point {point}")
        return self._c * _p_eval(self._num, point) / den

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
                s = out.get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
            return out

        den = sub(self._den)
        if not den:
            raise EvaluationError("substitution makes the denominator zero")
        return Scalar(reg, sub(self._num), den) * self._c

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
        if not o._num:
            return self
        if not self._num:
            return o
        return dot((self, o), (1, 1))

    __radd__ = __add__

    def __neg__(self):
        return Scalar._of(self.registry, -self._c, self._num, self._den)

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
        if not self._num or not o._num:
            return self.registry.zero()
        if o.is_rational_constant():
            return Scalar._of(self.registry, self._c * o._c, self._num,
                              self._den)
        if self.is_rational_constant():
            return Scalar._of(self.registry, self._c * o._c, o._num, o._den)
        return _reduced(self.registry, _p_mul(self._num, o._num),
                        _p_mul(self._den, o._den), self._c * o._c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if o.is_rational_constant():
            return Scalar._of(self.registry, self._c / o._c, self._num,
                              self._den)
        return _reduced(self.registry, _p_mul(self._num, o._den),
                        _p_mul(self._den, o._num), self._c / o._c)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self._c == o._c and self._num == o._num
                and self._den == o._den)

    def __hash__(self):
        # the hash of the fully expanded numerator and denominator terms
        if self._hash is None:
            self._hash = hash((
                tuple(sorted((m, self._c * c) for m, c in self._num.items())),
                tuple(sorted(self._den.items()))))
        return self._hash

    def __bool__(self):
        return bool(self._num)

    def __float__(self):
        return float(self.evaluate())

    # -- serialization ------------------------------------------------

    def _poly_str(self, poly: dict, content=1) -> str:
        if not poly:
            return "0"
        names = self.registry.names
        parts = []
        for m, c in sorted(poly.items(), key=lambda t: _mono_key(t[0]),
                           reverse=True):
            c *= content
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
        unit = self.registry._unit
        if self._den == unit:
            # rational constants, most of a report's strings, print
            # as their Fraction
            if not self._num:
                return "0"
            if self._num == unit:
                return str(self._c)
            return self._poly_str(self._num, self._c)
        ns = self._poly_str(self._num, self._c)
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

    Returns (numerators, denominator) as int term dicts; the i-th scalar
    equals numerators[i] / denominator.  The denominator is the lcm of
    the primitive denominators times one integer scale, the lcm of the
    contents' denominators.
    """
    scalars = list(scalars)
    if not scalars:
        return [], {}
    den = scalars[0].registry._unit
    for s in scalars:
        if s._den != den:
            den = _p_lcm(den, s._den)
    ratios = [s._c.as_integer_ratio() for s in scalars]
    scale = _int_lcm(*(d for _, d in ratios))
    nums = [_p_scale(s._num if s._den == den else
                     _p_mul(s._num, _p_div_exact(den, s._den)),
                     n * (scale // d))
            for s, (n, d) in zip(scalars, ratios)]
    return nums, _p_scale(den, scale)


def dot(u, v) -> Scalar:
    """sum_i u_i v_i, normalized once.

    u is a nonempty sequence of Scalars and v holds Scalars or ints.
    Each side is put over one common denominator; the products of the
    numerators are summed as polynomials into one Scalar.  When every
    v_i is an int, u's numerators are scaled by them directly.
    """
    reg = u[0].registry
    nu, den = over_common_denominator(u)
    if all(type(x) is int for x in v):
        return _int_dot(reg, nu, den, v)
    nv, dv = over_common_denominator([reg.scalar(x) for x in v])
    return _reduced(reg, _p_sum([_p_mul(a, b) for a, b in zip(nu, nv)]),
                    _p_mul(den, dv))


def _int_dot(reg: ParamRegistry, nums, den, ints) -> Scalar:
    """sum_i ints_i * nums_i / den, for over_common_denominator's output."""
    return _reduced(reg, _p_sum(_p_scale(a, k)
                                for a, k in zip(nums, ints) if k), den)


def monomial_rows(scalars: Iterable[Scalar]):
    """Per-monomial integer coefficient rows of scalars over one denominator.

    One row per monomial of the numerators, in sorted order; entry i is
    that monomial's coefficient in the numerator of the i-th scalar over
    the lcm of the primitive denominators, times the row's least common
    denominator, so the Q-linear relations among the scalars are the
    vectors orthogonal to every row.
    """
    nums, den = over_common_denominator(scalars)
    # over_common_denominator scaled every numerator by den's content
    scale = _int_gcd(*den.values())
    rows = []
    for m in sorted({m for num in nums for m in num}):
        row = [num.get(m, 0) for num in nums]
        g = _int_gcd(scale, *row)
        rows.append([x // g for x in row])
    return rows
