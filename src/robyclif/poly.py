"""Sparse multivariate polynomials over exact scalars.

A ``Poly`` is a canonical term map: exponent tuple -> nonzero coefficient,
where each coefficient is stored in the cheapest exact type that holds it
(``int`` when integral, ``Fraction`` when rational, ``CycScalar`` only when
not in Q) and exponent tuples are aligned to a sorted tuple of variable
names.  Canonical means no explicit zero terms ever get stored, so two
polynomials are equal exactly when their aligned term maps are equal.

The textual syntax is ``3/2*x^2*y - z2`` with variables matching
``[a-zA-Z][a-zA-Z0-9_]*``; the reserved atoms ``zeta2``, ``zeta3``, ... parse
to primitive roots of unity so cyclotomic coefficients round-trip.

Parsing is one pass in one variable context: one ``finditer`` over the
text, then one descent in which every atom, product, power and sum is a term
map keyed over the sorted names of the text.  Each term of a sum is added
into a single map in place, and no key is realigned until the result drops
the names its text mentions only under a ``^0``.  So parsing costs in
proportion to the text times its number of variables, plus the expansion of
any product or power of factors with several terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import itemgetter

from . import kernel
from .errors import InputError
from .scalars import CycScalar, decimal_str, exact_div, make_root, narrow

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
    if isinstance(c, Scalar):
        return narrow(c)
    raise InputError(f"unsupported coefficient type: {type(c).__name__}")


def _check_var_name(name: str) -> str:
    if not _VAR_RE.fullmatch(name):
        raise InputError(f"invalid variable name: {name!r}")
    if _ZETA_RE.fullmatch(name):
        raise InputError(f"variable name {name!r} is reserved for roots of unity")
    return name


def _align_terms(terms: dict, old_vars: tuple, new_vars: tuple) -> dict:
    """Remap exponent tuples from old_vars to new_vars.

    A variable of new_vars missing from old_vars gets exponent 0; one of
    old_vars missing from new_vars must have exponent 0 in every key.  The
    index is built once per call; each key, padded with one zero for the
    variables it lacks, is then remapped by one ``itemgetter`` call.  An
    empty map, or one already over new_vars, is returned as it is.
    """
    if old_vars == new_vars or not terms:
        return terms
    pos = {v: i for i, v in enumerate(old_vars)}
    pad = len(old_vars)  # the index of the zero
    index = [pos.get(v, pad) for v in new_vars]
    if len(index) > 1:
        get = itemgetter(*index)
        return {get(exp + (0,)): c for exp, c in terms.items()}
    # zero or one variable, where itemgetter would not return a tuple
    return {tuple([(exp + (0,))[i] for i in index]): c for exp, c in terms.items()}


class Poly:
    """Immutable sparse polynomial with a sorted variable context."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars=(), terms=None, *, _canonical=False):
        if _canonical:
            self.vars = vars
            self.terms = terms if terms is not None else {}
            return
        vars = tuple(vars)
        vs = tuple(sorted({_check_var_name(v) for v in vars}))
        if len(vs) != len(vars):
            dup = next(v for i, v in enumerate(vars) if v in vars[:i])
            raise InputError(f"variable {dup!r} appears twice in the context")
        width = len(vs)
        canon: dict = {}
        if terms:
            remap = vs != vars
            pos = {v: i for i, v in enumerate(vs)}
            idx = [pos[v] for v in vars]
            for exp, c in terms.items():
                if len(exp) != len(vars):
                    raise InputError("exponent tuple width does not match variables")
                if not all(isinstance(e, int) and e >= 0 for e in exp):
                    raise InputError(f"exponents must be nonnegative integers, got {exp!r}")
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
        return cls((name,), {(1,): 1}, _canonical=True)

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
        return Poly(vs, _align_terms(self.terms, self.vars, vs), _canonical=True)

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
        return self * exact_div(1, c)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InputError("polynomial powers must be nonnegative integers")
        if not n:
            return Poly.const(1)
        # from the first factor, squaring only while bits remain
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

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
            return 0
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
        string, or a scalar.  A variable bound to itself is left unbound:
        the result has the same terms, in the same order, with coefficients
        of the same types, and no product is taken for it.
        """
        vals = {}
        for v, b in bindings.items():
            if v in self.vars:
                p = as_poly(b)
                if p.vars != (v,) or p.terms != {(1,): 1} or type(p.terms[(1,)]) is not int:
                    vals[v] = p
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
        # squares[v][i] is value(v)^(2^i); each power used is built once by
        # binary powering over them, and no power goes unused
        squares = {v: [p.aligned(new_vars)] for v, p in vals.items()}
        powers: dict = {}

        def var_power(v: str, n: int):
            power = powers.get((v, n))
            if power is None:
                sq = squares[v]
                for i in range(n.bit_length()):
                    if i == len(sq):
                        sq.append(kernel.mul_terms(sq[-1], sq[-1]))
                    if n >> i & 1:
                        power = sq[i] if power is None else kernel.mul_terms(sq[i], power)
                powers[v, n] = power
            return power

        out: dict = {}
        for exp, c in self.terms.items():
            base_exp = [0] * width
            for i, j in keep_idx:
                base_exp[j] = exp[i]
            acc = {tuple(base_exp): c}
            for i, v in bound:
                if exp[i]:
                    acc = kernel.mul_terms(acc, var_power(v, exp[i]))
            kernel.add_into(out, acc)
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
        return decimal_str(-c), True
    return decimal_str(c), False


def _cyc_expr(c: CycScalar) -> str:
    """A parenthesized zeta-expression that re-parses to c."""
    parts = []
    for i, coeff in enumerate(c.coeffs):
        if not coeff:
            continue
        if i == 0:
            atom = decimal_str(abs(coeff))
        else:
            zeta = f"zeta{c.order}" if i == 1 else f"zeta{c.order}^{i}"
            atom = zeta if abs(coeff) == 1 else f"{decimal_str(abs(coeff))}*{zeta}"
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

# Parentheses plus unary signs.  A parenthesis costs the parser four stack
# frames and a sign none, which keeps it far below Python's recursion limit.
MAX_NESTING = 100

# Largest predicted term count of a parsed power ``(...)^N`` (see
# ``_power_term_bound``).  Every power in the tests, demos and benchmark
# inputs raises a single term, which predicts 1.  Expansion costs about the
# square of the term count, so 1000 keeps the worst admitted power at 25-35 ms
# on a 2-CPU VM with Python 3.11 (``(x+y+z+w)^16``, 969 terms), while
# ``(x+y+z+w+u)^10`` (1001 terms) and ``^20`` (10626 terms) are refused
# before any expansion.
MAX_POWER_TERMS = 1000

# Largest exponent a parsed power ``^N`` may write (N itself) or produce (N
# times the largest exponent in its base).  The tests, demos and benchmark
# inputs reach 800 at most (``(3*x*y^2)^400`` in the tests; the demos and
# benchmark covers stay at 6).  Work downstream grows with the degree: a
# substitution builds one cached power of the substituted value per degree,
# so x^1000 under x -> y + 1 builds a thousand powers, half a million terms,
# in about a second, where x^99999999999999 would never finish.
MAX_EXPONENT = 1000

# Largest predicted bit length of a coefficient raised by a parsed power: N
# times the bit length of the base's largest coefficient, exactly the growth
# of a one-term base, which the term cap predicts as one term.  The tests,
# demos and benchmark inputs predict 1000 bits at most (x^1000 counts one bit
# per factor); 100000 bits is a 12.5 kB integer that takes about a
# millisecond to compute, while (3*x)^30000000 (60 million bits) took 62 s.
MAX_POWER_BITS = 100_000


def _coeff_bits(c) -> int:
    """Bit length of a coefficient's largest numerator or denominator."""
    parts = c.coeffs if isinstance(c, CycScalar) else (c,)
    return max(
        max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in parts if x
    )


def _check_power(base: Poly, n: int) -> None:
    """Refuse base**n before expanding it if it could pass a cap.

    N is checked first and alone, so every later bound is computed, and
    printed, only for N at most ``MAX_EXPONENT``.
    """
    if n > MAX_EXPONENT:
        raise InputError(f"power ^{n} is above the exponent cap {MAX_EXPONENT}")
    largest = max((max(exp, default=0) for exp in base.terms), default=0)
    top = n * largest
    if top > MAX_EXPONENT:
        raise InputError(f"power ^{n} gives exponent {top}, above the cap {MAX_EXPONENT}")
    bound = _power_term_bound(base, n)
    if bound > MAX_POWER_TERMS:
        raise InputError(
            f"power ^{n} may expand to {bound} terms, above the cap {MAX_POWER_TERMS}"
        )
    bits = n * max(map(_coeff_bits, base.terms.values()), default=0)
    if bits > MAX_POWER_BITS:
        raise InputError(
            f"power ^{n} may give a {bits}-bit coefficient, above the cap {MAX_POWER_BITS}"
        )


def _power_term_bound(base: Poly, n: int) -> int:
    """Upper bound on the number of terms of base**n, without expanding it.

    base**n has total degree at most n*deg in the k variables base uses, so
    at most C(k + n*deg, k) monomials; each of its terms is also a product of
    n of the t terms of base, so there are at most C(t + n - 1, n) of them.
    """
    if len(base.terms) < 2:  # a power of one term or none has at most one
        return 1
    k = sum(map(any, zip(*base.terms)))  # the variables base uses
    by_degree = comb(k + n * base.total_degree(), k)
    return min(by_degree, comb(len(base.terms) + n - 1, n))


# One match per token: a number, a name or operator, or a character that
# starts no token.
_TOKEN_RE = re.compile(
    r"\s*(?:([0-9]+(?:\s*/\s*[0-9]+)?)|([a-zA-Z][a-zA-Z0-9_]*|[-+*^()])|(\S))"
)


def _number(text: str):
    """The value of a numeric literal: an int, or a Fraction if not integral."""
    try:
        if "/" not in text:
            return int(text)
        return narrow(Fraction(text.replace(" ", "")))
    except ValueError:  # more digits than int() converts
        raise InputError(f"number of {len(text)} characters is too long") from None
    except ZeroDivisionError:
        raise InputError(f"the number {text!r} has a zero denominator") from None


def _tokenize(text: str) -> list:
    """The tokens of a polynomial text, then None.

    A number is its value; a name or an operator is its text.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        number, word, bad = m.groups()
        if word is not None:
            tokens.append(word)
        elif number is not None:
            tokens.append(_number(number))
        else:
            raise InputError(f"cannot tokenize polynomial at: {text[m.start():]!r}")
    tokens.append(None)
    return tokens


class _Parser:
    """Recursive descent over a token list, in one variable context.

    The context is fixed before the first token is read: the sorted names in
    the token list, zeta atoms excluded.  Every atom, product, power and sum
    is a term map over it, so nothing is realigned on the way.  A sum adds
    each term into one map in place, a product is ``kernel.mul_terms``, and
    a power of several terms is ``Poly.__pow__``; a power of one term scales
    its key and raises its coefficient.  Every scalar operation runs in the
    order of the Poly arithmetic the text spells, so values, coefficient
    types and key order are those of that arithmetic.  ``seen`` lists the
    names read outside a ``^0``: the result's variables.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.seen = []
        names = [t for t in set(tokens) if type(t) is str and t[0].isalpha()]
        self.vars = tuple(sorted(v for v in names if not _ZETA_RE.fullmatch(v)))
        self.one = (0,) * len(self.vars)  # the key of the monomial 1
        self.units = {v: self.one[:i] + (1,) + self.one[i + 1 :] for i, v in enumerate(self.vars)}

    def enter(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise InputError("polynomial nested too deeply")

    def parse_expr(self) -> dict:
        """Term map of a sum or difference of terms."""
        terms = self.parse_term()
        while True:
            op = self.tokens[self.i]
            if op == "+":
                into = kernel.add_into
            elif op == "-":
                into = kernel.sub_into
            else:
                return terms
            self.i += 1
            into(terms, self.parse_term())

    def parse_term(self) -> dict:
        """Term map of a product of factors."""
        terms = self.parse_factor()
        while self.tokens[self.i] == "*":
            self.i += 1
            terms = kernel.mul_terms(terms, self.parse_factor())
        return terms

    def parse_factor(self) -> dict:
        """Term map of a signed atom or power of one."""
        tokens = self.tokens
        signs = negate = 0
        tok = tokens[self.i]
        while tok == "-" or tok == "+":
            self.i += 1
            self.enter()
            signs += 1
            negate ^= tok == "-"
            tok = tokens[self.i]
        self.i += 1
        mark = len(self.seen)
        terms = self.parse_atom(tok)
        if tokens[self.i] == "^":
            n = tokens[self.i + 1]
            self.i += 2
            if type(n) is not int:
                raise InputError("exponent must be a nonnegative integer")
            base = Poly(self.vars, terms, _canonical=True)
            _check_power(base, n)
            if not n:
                del self.seen[mark:]  # names under a ^0 leave the result
                terms = {self.one: 1}
            elif len(terms) > 1:
                terms = (base**n).terms
            else:  # one term or none: no product to take
                terms = {tuple([e * n for e in key]): c**n for key, c in terms.items()}
        self.depth -= signs
        return kernel.neg_terms(terms) if negate else terms

    def parse_atom(self, tok) -> dict:
        if tok == "(":
            self.enter()
            terms = self.parse_expr()
            if self.tokens[self.i] != ")":
                raise InputError("expected ')' in polynomial")
            self.i += 1
            self.depth -= 1
            return terms
        unit = self.units.get(tok)
        if unit is not None:
            self.seen.append(tok)
            return {unit: 1}
        if type(tok) is not str:
            if tok is None:
                raise InputError("unexpected token in polynomial: None")
            return {self.one: tok} if tok else {}
        m = _ZETA_RE.fullmatch(tok)
        if m:
            digits = m.group(1)
            try:
                order = int(digits)
            except ValueError:  # more digits than int() converts
                raise InputError(f"zeta order of {len(digits)} digits is too long") from None
            return {self.one: narrow(make_root(order))}
        raise InputError(f"unexpected token in polynomial: {tok!r}")


def parse_poly(text: str) -> Poly:
    """Parse the textual polynomial syntax; raises InputError on bad input."""
    if not isinstance(text, str) or not text.strip():
        raise InputError("empty polynomial string")
    parser = _Parser(_tokenize(text))
    terms = parser.parse_expr()
    tok = parser.tokens[parser.i]
    if tok is not None:
        raise InputError(f"trailing input in polynomial: {tok!r}")
    vars = tuple(sorted(set(parser.seen)))
    if vars != parser.vars:  # some names were read only under a ^0
        terms = _align_terms(terms, parser.vars, vars)
    return Poly(vars, terms, _canonical=True)


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
