"""Sparse multivariate polynomials over exact scalars.

A ``Poly`` is a canonical term map: exponent tuple -> nonzero coefficient,
where coefficients are ``Fraction`` or ``CycScalar`` and exponent tuples are
aligned to a sorted tuple of variable names.  Canonical means no explicit
zero terms ever get stored, so two polynomials are equal exactly when their
aligned term maps are equal.

The textual syntax is ``3/2*x^2*y - z2`` with variables matching
``[a-zA-Z][a-zA-Z0-9_]*``; the reserved atoms ``zeta2``, ``zeta3``, ... parse
to primitive roots of unity so cyclotomic coefficients round-trip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import kernel
from .errors import InputError
from .scalars import CycScalar, make_root

__all__ = [
    "Poly",
    "HomForm",
    "as_poly",
    "poly_arith",
    "substitute",
    "parse_poly",
]

Scalar = (int, Fraction, CycScalar)

_VAR_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")
_ZETA_RE = re.compile(r"zeta([0-9]+)\Z")


def _coerce_coeff(c):
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, (Fraction, CycScalar)):
        return c
    raise InputError(f"unsupported coefficient type: {type(c).__name__}")


def _check_var_name(name: str) -> str:
    if not _VAR_RE.fullmatch(name):
        raise InputError(f"invalid variable name: {name!r}")
    if _ZETA_RE.fullmatch(name):
        raise InputError(f"variable name {name!r} is reserved for roots of unity")
    return name


def _align_terms(terms: dict, old_vars: tuple, new_vars: tuple) -> dict:
    """Remap exponent tuples from old_vars to new_vars (a superset)."""
    if old_vars == new_vars:
        return terms
    pos = {v: i for i, v in enumerate(new_vars)}
    idx = [pos[v] for v in old_vars]
    width = len(new_vars)
    out = {}
    for exp, c in terms.items():
        new_exp = [0] * width
        for i, e in enumerate(exp):
            if e:
                new_exp[idx[i]] = e
        out[tuple(new_exp)] = c
    return out


class Poly:
    """Immutable sparse polynomial with a sorted variable context."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None, *, _canonical=False):
        if _canonical:
            self.vars = vars
            self.terms = terms if terms is not None else {}
            return
        vs = tuple(sorted({_check_var_name(v) for v in vars}))
        width = len(vs)
        canon: dict = {}
        if terms:
            remap = vs != tuple(vars)
            pos = {v: i for i, v in enumerate(vs)}
            idx = [pos[v] for v in vars]
            for exp, c in terms.items():
                if len(exp) != len(vars):
                    raise InputError("exponent tuple width does not match variables")
                c = _coerce_coeff(c)
                if not c:
                    continue
                if remap:
                    new_exp = [0] * width
                    for i, e in enumerate(exp):
                        new_exp[idx[i]] = e
                    key = tuple(new_exp)
                else:
                    key = tuple(exp)
                if key in canon:
                    acc = canon[key] + c
                    if acc:
                        canon[key] = acc
                    else:
                        del canon[key]
                else:
                    canon[key] = c
        self.vars = vs
        self.terms = canon

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls((), {}, _canonical=True)

    @classmethod
    def const(cls, c) -> "Poly":
        c = _coerce_coeff(c)
        if not c:
            return cls.zero()
        return cls((), {(): c}, _canonical=True)

    @classmethod
    def variable(cls, name: str) -> "Poly":
        _check_var_name(name)
        return cls((name,), {(1,): Fraction(1)}, _canonical=True)

    @classmethod
    def from_string(cls, text: str) -> "Poly":
        return parse_poly(text)

    # -- context handling ----------------------------------------------------

    def aligned(self, vars: tuple) -> dict:
        """Term map of self in the (super)context vars."""
        return _align_terms(self.terms, self.vars, vars)

    def _common(self, other: "Poly"):
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        vs = tuple(sorted(set(self.vars) | set(other.vars)))
        return vs, self.aligned(vs), other.aligned(vs)

    def pruned(self) -> "Poly":
        """Drop variables that appear in no term (canonical minimal context)."""
        used = [i for i, v in enumerate(self.vars) if any(e[i] for e in self.terms)]
        if len(used) == len(self.vars):
            return self
        vs = tuple(self.vars[i] for i in used)
        terms = {tuple(exp[i] for i in used): c for exp, c in self.terms.items()}
        return Poly(vs, terms, _canonical=True)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Scalar):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        vs, a, b = self._common(other)
        return Poly(vs, kernel.add_terms(a, b), _canonical=True)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Scalar):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        vs, a, b = self._common(other)
        return Poly(vs, kernel.sub_terms(a, b), _canonical=True)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Poly(self.vars, kernel.neg_terms(self.terms), _canonical=True)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return Poly(self.vars, kernel.scale_terms(self.terms, _coerce_coeff(other)), _canonical=True)
        if not isinstance(other, Poly):
            return NotImplemented
        vs, a, b = self._common(other)
        return Poly(vs, kernel.mul_terms(a, b), _canonical=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        c = _coerce_coeff(other)
        if not c:
            raise ZeroDivisionError("division of a polynomial by zero")
        if isinstance(c, Fraction):
            inv = Fraction(1) / c
        else:
            inv = 1 / c
        return self * inv

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InputError("polynomial powers must be nonnegative integers")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        _, a, b = self._common(other)
        return a == b

    __hash__ = None  # type: ignore[assignment]  # term maps are mutable dicts

    def total_degree(self):
        """Max total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(exp) for exp in self.terms)

    def degree_in(self, var: str) -> int:
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max((exp[i] for exp in self.terms), default=0)

    def homogeneous_degree(self, in_vars=None):
        """Common degree of all terms (in in_vars if given); None if mixed.

        The zero polynomial reports 0.
        """
        if not self.terms:
            return 0
        if in_vars is None:
            idx = range(len(self.vars))
        else:
            lookup = {v: i for i, v in enumerate(self.vars)}
            idx = [lookup[v] for v in in_vars if v in lookup]
        degs = {sum(exp[i] for i in idx) for exp in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self.terms)

    def constant_value(self):
        """The value of a constant polynomial as a scalar."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise InputError(f"polynomial is not constant: {self}")
        return next(iter(self.terms.values()))

    def coefficient_map(self, var: str) -> dict:
        """Coefficients of self as a univariate in var: degree -> Poly."""
        if var not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(var)
        rest_vars = self.vars[:i] + self.vars[i + 1 :]
        buckets: dict[int, dict] = {}
        for exp, c in self.terms.items():
            k = exp[i]
            rest = exp[:i] + exp[i + 1 :]
            buckets.setdefault(k, {})[rest] = c
        return {
            k: Poly(rest_vars, terms, _canonical=True) for k, terms in sorted(buckets.items())
        }

    def substitute(self, bindings) -> "Poly":
        """Simultaneous substitution var -> value; a ring morphism.

        Each value is anything ``as_poly`` accepts: a Poly, a polynomial
        string, or a scalar.
        """
        vals = {}
        for v, b in bindings.items():
            if v in self.vars:
                vals[v] = as_poly(b)
        if not vals:
            return self
        keep = tuple(v for v in self.vars if v not in vals)
        new_set = set(keep)
        for p in vals.values():
            new_set.update(p.vars)
        new_vars = tuple(sorted(new_set))
        width = len(new_vars)
        pos = {v: i for i, v in enumerate(new_vars)}
        keep_idx = [
            (i, pos[v]) for i, v in enumerate(self.vars) if v not in vals
        ]
        bound = [
            (i, v) for i, v in enumerate(self.vars) if v in vals
        ]
        aligned_vals = {v: p.aligned(new_vars) for v, p in vals.items()}
        pow_cache: dict[str, list] = {
            v: [{(0,) * width: Fraction(1)}, aligned_vals[v]] for v in aligned_vals
        }

        def var_power(v: str, n: int):
            cache = pow_cache[v]
            while len(cache) <= n:
                cache.append(kernel.mul_terms(cache[-1], cache[1]))
            return cache[n]

        out: dict = {}
        for exp, c in self.terms.items():
            base_exp = [0] * width
            for i, j in keep_idx:
                base_exp[j] = exp[i]
            acc = {tuple(base_exp): c}
            for i, v in bound:
                if exp[i]:
                    acc = kernel.mul_terms(acc, var_power(v, exp[i]))
            out = kernel.add_terms(out, acc)
        return Poly(new_vars, out, _canonical=True)

    def evaluate(self, bindings):
        """Substitute scalars for every variable and return the scalar value."""
        return self.substitute(bindings).constant_value()

    # -- display -----------------------------------------------------------------

    def sorted_terms(self):
        """Terms in display order: total degree descending, then exponents."""
        return sorted(
            self.terms.items(), key=lambda item: (-sum(item[0]), tuple(-e for e in item[0]))
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, exp)
                if e
            )
            coeff, negative = _coeff_text(c)
            if mono:
                body = mono if coeff == "1" else f"{coeff}*{mono}"
            else:
                body = coeff
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


def _coeff_text(c) -> tuple[str, bool]:
    """Render a coefficient; returns (text without sign, is_negative)."""
    if isinstance(c, CycScalar):
        r = c.as_rational()
        if r is None:
            return _cyc_expr(c), False
        c = r
    if c < 0:
        return str(-c), True
    return str(c), False


def _cyc_expr(c: CycScalar) -> str:
    """A parenthesized zeta-expression that re-parses to c."""
    parts = []
    for i, coeff in enumerate(c.coeffs):
        if not coeff:
            continue
        if i == 0:
            atom = str(abs(coeff))
        else:
            zeta = f"zeta{c.order}" if i == 1 else f"zeta{c.order}^{i}"
            atom = zeta if abs(coeff) == 1 else f"{abs(coeff)}*{zeta}"
        if not parts:
            parts.append(f"-{atom}" if coeff < 0 else atom)
        else:
            parts.append(f"- {atom}" if coeff < 0 else f"+ {atom}")
    return "(" + " ".join(parts) + ")"


@dataclass(frozen=True)
class HomForm:
    """A homogeneous form of fixed degree in designated argument variables.

    Other variables appearing in ``underlying`` are coefficients from the
    base ring, not arguments.
    """

    underlying: Poly
    degree: int
    arg_vars: tuple

    def __post_init__(self):
        object.__setattr__(self, "arg_vars", tuple(self.arg_vars))
        deg = self.underlying.homogeneous_degree(self.arg_vars)
        if self.underlying and deg != self.degree:
            raise InputError(
                f"form is not homogeneous of degree {self.degree} in {self.arg_vars}"
            )

    def single_term(self):
        """(coefficient Poly, {arg var: exponent}) for a one-term form."""
        if len(self.underlying.terms) != 1:
            raise InputError("form has more than one term")
        exp, c = next(iter(self.underlying.terms.items()))
        arg_set = set(self.arg_vars)
        coeff_exp = []
        arg_exps = {}
        for v, e in zip(self.underlying.vars, exp):
            if v in arg_set:
                if e:
                    arg_exps[v] = e
                coeff_exp.append(0)
            else:
                coeff_exp.append(e)
        coeff = Poly(self.underlying.vars, {tuple(coeff_exp): c}, _canonical=True).pruned()
        return coeff, arg_exps


# -- parsing -----------------------------------------------------------------

# Parentheses plus unary signs; each level costs the parser at most four
# stack frames, which keeps it far below Python's recursion limit.
MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>[0-9]+(?:\s*/\s*[0-9]+)?)|(?P<name>[a-zA-Z][a-zA-Z0-9_]*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    pos, tokens = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError(f"cannot tokenize polynomial at: {text[pos:]!r}")
            break
        pos = m.end()
        if m.lastgroup == "number":
            tokens.append(("number", Fraction(m.group("number").replace(" ", ""))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def enter(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise InputError("polynomial nested too deeply")

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise InputError(f"expected {op!r} in polynomial")

    def parse_expr(self) -> Poly:
        result = self.parse_term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.parse_term()
                result = result + rhs if val == "+" else result - rhs
            else:
                return result

    def parse_term(self) -> Poly:
        result = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "*":
                self.take()
                result = result * self.parse_factor()
            else:
                return result

    def parse_factor(self) -> Poly:
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            self.enter()
            inner = self.parse_factor()
            self.depth -= 1
            return inner if val == "+" else -inner
        base = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, exp = self.take()
            if kind != "number" or exp.denominator != 1 or exp < 0:
                raise InputError("exponent must be a nonnegative integer")
            return base ** int(exp)
        return base

    def parse_atom(self) -> Poly:
        kind, val = self.take()
        if kind == "number":
            return Poly.const(val)
        if kind == "name":
            m = _ZETA_RE.fullmatch(val)
            if m:
                return Poly.const(make_root(int(m.group(1))))
            return Poly.variable(val)
        if kind == "op" and val == "(":
            self.enter()
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise InputError(f"unexpected token in polynomial: {val!r}")


def parse_poly(text: str) -> Poly:
    """Parse the textual polynomial syntax; raises InputError on bad input."""
    if not isinstance(text, str) or not text.strip():
        raise InputError("empty polynomial string")
    parser = _Parser(_tokenize(text))
    result = parser.parse_expr()
    kind, val = parser.peek()
    if kind != "end":
        raise InputError(f"trailing input in polynomial: {val!r}")
    return result


def as_poly(x) -> Poly:
    """A Poly, polynomial string or scalar as a Poly; InputError otherwise."""
    if isinstance(x, Poly):
        return x
    if isinstance(x, str):
        return parse_poly(x)
    if isinstance(x, Scalar):
        return Poly.const(x)
    raise InputError(f"cannot interpret {type(x).__name__} as a polynomial")


# -- contract-named entry points ----------------------------------------------

_POLY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
}


def poly_arith(a: Poly, b: Poly, op: str) -> Poly:
    """Ring operation on two polynomials; op in {add, sub, mul}."""
    try:
        fn = _POLY_OPS[op]
    except KeyError:
        raise InputError(f"unknown polynomial operation {op!r}") from None
    return fn(a, b)


def substitute(p: Poly, bindings) -> Poly:
    """Simultaneous substitution; see :meth:`Poly.substitute`."""
    return p.substitute(bindings)
