"""Sparse multivariate polynomials over exact scalars.

A ``Poly`` is a canonical term map in one context: sorted variable names
``vars``, a field ``width`` (a multiple of 8 bits) and an exponent bound
``top`` below 2**width.  A key packs exponent i of ``vars`` into bits
[i*width, (i+1)*width) of one int.  A coefficient is an exact scalar
(``int``, ``Fraction`` or ``CycScalar``): a number, zeta atom or constructor
input is stored in the cheapest type that holds it (``scalars.narrow``), but
sums and products keep the type their operands' arithmetic gives, so a
rational value can be held as an integral ``Fraction`` (``1/2*2*x``) or a
``CycScalar`` (``zeta4^2*x``); equality and printing go by value alone.
Canonical means no explicit zero terms ever get stored, so two polynomials
are equal exactly when their term maps are equal in a shared context.
``terms`` decodes the keys to exponent tuples.

``PolyMatrix`` stores the same keys under the same width rule: a result's
bound is the sum of its operands' bounds for a product and the larger one
for a sum, and its operands are first widened to the least multiple of 8
bits that holds it (``_fit``), so a field never carries.  Polys and
matrices meet in one join, ``_context``, and keys cross between contexts
through one cached ``kernel.repacker`` (``_recoder``), or unchanged.

Substitution is one routine on packed keys, ``_substituted``, over a list
of term maps in one context; ``Poly.substitute`` calls it on its one map
and ``PolyMatrix.substitute`` on its nonzero entries.  Terms under a
variable bound to zero are dropped by one mask test, and a map whose OR of
keys misses those fields is kept whole.  A map with no other bound
variable is re-encoded whole by ``_recoder``.  The other maps' terms are
grouped by their bits under the bound variables: each group is re-encoded
once, those bits cleared, and multiplied once by its product of the
values' powers.  The products are built by binary powering over squares,
in one memo for the call that every map shares, so each is built once.

The textual syntax is ``3/2*x^2*y - z2`` with variables matching
``[a-zA-Z][a-zA-Z0-9_]*``; the reserved atoms ``zeta2``, ``zeta3``, ... parse
to primitive roots of unity so cyclotomic coefficients round-trip.

Parsing is one pass in one variable context, the sorted names of the
text: one ``findall`` over the text, then one descent.  A term of one-term
factors (numbers, names, zeta atoms and their powers) is read as one packed
key and one coefficient: a product adds keys and multiplies coefficients in
text order, a power multiplies its key and raises its coefficient, and the
term is added into the sum's map in place.  A ``Poly`` is built only for a
parenthesized sum of several terms, its powers and products, and the sum
itself, and no key is realigned until the result drops the names its text
mentions only under a ``^0``.  So parsing costs in proportion to the text,
plus the expansion of any product or power of factors with several terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from operator import or_

from . import kernel
from .errors import InputError
from .scalars import CycScalar, decimal_str, exact_div, make_root, narrow

__all__ = [
    "Poly",
    "HomForm",
    "as_poly",
    "parse_poly",
]

Scalar = (int, Fraction, CycScalar)

_VAR_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")
_ZETA_RE = re.compile(r"zeta([0-9]+)\Z")

# Bits per exponent field of a polynomial or matrix built from exponents
# that fit in it; wider fields come only from the width rule.
_WIDTH = 8


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


# -- contexts --------------------------------------------------------------------


def _fit(top: int, width: int) -> int:
    """The least multiple of 8 bits, at least width, whose fields hold top."""
    while top >> width:
        width += 8
    return width


def _context(parts, top: int) -> tuple:
    """(vars, width) where Polys or matrices meet: the sorted union of their
    variables, and fields of at least ``_WIDTH`` and each part's width that
    hold top.  Parts with equal ``vars`` share theirs, with no set built.
    """
    vs = parts[0].vars if parts else ()
    width = _WIDTH
    for p in parts:
        if p.vars != vs:
            vs = None
        if p.width > width:
            width = p.width
    if vs is None:
        vs = tuple(sorted({v for p in parts for v in p.vars}))
    return vs, _fit(top, width)


@lru_cache(maxsize=None)
def _recoder(old_vars: tuple, old_width: int, vars: tuple, width: int):
    """``kernel.repacker`` from keys over old_vars to keys over vars, or None.

    A variable of old_vars missing from vars is dropped: its field must be
    zero in every key.  Every exponent must be below 2**width.
    """
    pos = {v: i for i, v in enumerate(vars)}
    return kernel.repacker([pos.get(v) for v in old_vars], old_width, width)


def _recoded(terms: dict, old_vars: tuple, old_width: int, vars: tuple, width: int) -> dict:
    """A packed term map re-encoded from one context to another (itself if unchanged)."""
    recode = _recoder(old_vars, old_width, vars, width) if terms else None
    return terms if recode is None else recode(terms)


def _new(vars: tuple, width: int, top: int, packed: dict) -> "Poly":
    p = object.__new__(Poly)
    p.vars, p.width, p.top, p.packed = vars, width, top, packed
    return p


def _bound_values(bindings, names) -> dict:
    """The values bound to names, as Polys, less those of a variable to itself."""
    vals = {}
    for v, b in bindings.items():
        if v in names:
            p = as_poly(b)
            if p.vars != (v,) or p.packed != {1: 1} or type(p.packed[1]) is not int:
                vals[v] = p
    return vals


def _substituted(maps: list, vars: tuple, width: int, names: tuple, vals: dict):
    """Substitute vals into packed term maps over (vars, width), all at once.

    names holds the variables the results may keep and vals the values of
    some of them.  Returns the results' (vars, width, top, maps): the unbound
    names joined with the values' variables, in one context for every map.
    """
    keep = tuple(v for v in names if v not in vals)
    # a zero Poly over the kept variables meets the values
    new_vars, _ = _context([_new(keep, _WIDTH, 0, {}), *vals.values()], 0)
    mask = (1 << width) - 1
    bound = [(i * width, vals[v]) for i, v in enumerate(vars) if vals.get(v)]
    bound_mask = sum(mask << s for s, _ in bound)
    zero_mask = sum(mask << (i * width) for i, v in enumerate(vars) if v in vals and not vals[v])
    # on the old keys: drop the terms a zero kills, group the others by their
    # bits under the bound variables, and bound the results' exponents by
    # the kept fields' OR plus each group's exponents times its values' tops.
    # A map emptied here becomes the one shared empty map, so that emptied
    # dicts kept alive do not trigger garbage collections.
    whole, grouped, occ_all, top, empty = [], {}, 0, 0, {}
    for terms in maps:
        occ = reduce(or_, terms, 0)
        if occ & zero_mask:
            terms = {k: c for k, c in terms.items() if not k & zero_mask}
            occ = reduce(or_, terms, 0)
        occ_all |= occ
        if occ & bound_mask:
            groups = grouped[len(whole)] = {}
            for k, c in terms.items():
                g = k & bound_mask
                groups.setdefault(g, {})[k ^ g] = c
            top = max(top, *(sum((g >> s & mask) * p.top for s, p in bound) for g in groups))
            terms = empty
        whole.append(terms or empty)
    kept = occ_all & ~bound_mask
    top += max((kept >> s & mask for s in range(0, len(vars) * width, width)), default=0)
    new_width = _fit(max([top, *(p.top for p in vals.values())]), width)
    recode = _recoder(vars, width, new_vars, new_width)
    # bits g under the bound variables -> their product of the values' powers,
    # built by binary powering: a lone bit squares the one below it
    powers = {1 << s: p._keys_in(new_vars, new_width) for s, p in bound}

    def power(g: int) -> dict:
        p = powers.get(g)
        if p is None:
            low = g & -g
            a, b = (g >> 1, g >> 1) if low == g else (low, g - low)
            p = powers[g] = kernel.mul_terms(power(a), power(b))
        return p

    out = [recode(t) if t else t for t in whole] if recode else whole
    for i, groups in grouped.items():
        acc = None
        for g, rest in groups.items():
            if recode:
                rest = recode(rest)
            if g:
                rest = kernel.mul_terms(rest, power(g))
            if acc is None:
                acc = rest
            else:
                kernel.add_into(acc, rest)
        out[i] = acc
    return new_vars, new_width, top, out


class Poly:
    """Immutable sparse polynomial: a packed term map over sorted variables."""

    __slots__ = ("vars", "width", "top", "packed")

    def __init__(self, vars=(), terms=None):
        """From a term map keyed by exponent tuples over vars, in any order."""
        vars = tuple(vars)
        vs = tuple(sorted({_check_var_name(v) for v in vars}))
        if len(vs) != len(vars):
            dup = next(v for i, v in enumerate(vars) if v in vars[:i])
            raise InputError(f"variable {dup!r} appears twice in the context")
        canon: dict = {}
        for exp, c in (terms or {}).items():
            if len(exp) != len(vars):
                raise InputError("exponent tuple width does not match variables")
            if not all(isinstance(e, int) and e >= 0 for e in exp):
                raise InputError(f"exponents must be nonnegative integers, got {exp!r}")
            c = _coerce_coeff(c)
            if c:
                kernel.add_into(canon, {tuple(exp): c})
        top = max((max(exp) for exp in canon if exp), default=0)
        width = _fit(top, _WIDTH)
        self.vars, self.width, self.top = vs, width, top
        # packed over vars as given, then with the fields moved to sorted order
        self.packed = _recoded(kernel.pack(canon, width), vars, width, vs, width)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _new((), _WIDTH, 0, {})

    @classmethod
    def const(cls, c) -> "Poly":
        c = _coerce_coeff(c)
        return _new((), _WIDTH, 0, {0: c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        _check_var_name(name)
        return _new((name,), _WIDTH, 1, {1: 1})

    # -- context handling ----------------------------------------------------

    @property
    def terms(self) -> dict:
        """The term map keyed by exponent tuples over vars, in key order.

        A decoded copy: changing it changes nothing in the polynomial.
        """
        return kernel.unpack(self.packed, len(self.vars), self.width)

    def _keys_in(self, vars: tuple, width: int) -> dict:
        """The packed term map in a context holding self's (shared if unchanged)."""
        if vars == self.vars and width == self.width:
            return self.packed
        return _recoded(self.packed, self.vars, self.width, vars, width)

    def _common(self, other: "Poly", top: int):
        """(vars, width, self's terms, other's terms) in one context holding top."""
        width = self.width
        if self.vars == other.vars and width == other.width and not top >> width:
            return self.vars, width, self.packed, other.packed
        vs, width = _context((self, other), top)
        return vs, width, self._keys_in(vs, width), other._keys_in(vs, width)

    def _fields(self) -> list:
        """Per variable, the OR of its exponents over all terms.

        Each is below twice the variable's largest exponent, and zero when
        the variable occurs in no term.
        """
        occ = reduce(or_, self.packed, 0)
        width, mask = self.width, (1 << self.width) - 1
        return [occ >> (i * width) & mask for i in range(len(self.vars))]

    def pruned(self) -> "Poly":
        """Drop variables that appear in no term (canonical minimal context).

        The bound becomes the largest of ``_fields``: below twice the
        largest exponent, so it asks for no wider field than the exponents.
        """
        fields = self._fields()
        vs = tuple(v for v, f in zip(self.vars, fields) if f)
        width = self.width
        packed = _recoded(self.packed, self.vars, width, vs, width)
        return _new(vs, width, max(fields, default=0), packed)

    # -- arithmetic -----------------------------------------------------------

    def _sum(self, other, terms_op):
        if isinstance(other, Scalar):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        top = max(self.top, other.top)
        vs, width, a, b = self._common(other, top)
        return _new(vs, width, top, terms_op(a, b))

    def __add__(self, other):
        return self._sum(other, kernel.add_terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, kernel.sub_terms)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _new(self.vars, self.width, self.top, kernel.neg_terms(self.packed))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, Scalar):
                return NotImplemented
            c = _coerce_coeff(other)
            return _new(self.vars, self.width, self.top, kernel.scale_terms(self.packed, c))
        top = self.top + other.top
        vs, width, a, b = self._common(other, top)
        product = _new(vs, width, top, kernel.mul_terms(a, b))
        # bounded by its own keys, so that bounds do not add up along a chain
        # of products in different variables and widen fields for nothing
        product.top = max(product._fields(), default=0)
        return product

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
        return kernel.power(self, n)

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def __bool__(self) -> bool:
        return bool(self.packed)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        _, _, a, b = self._common(other, max(self.top, other.top))
        return a == b

    __hash__ = None  # type: ignore[assignment]  # term maps are mutable dicts

    def _degrees(self, idx):
        """Each term's sum of exponents over the fields idx, in key order.

        A key is the sum of f_i * 2**(i*width), and 2**width is 1 modulo
        m = 2**width - 1, so the key masked to idx is that sum modulo m.  It
        is the sum itself, found at C speed, when the ``_fields`` at idx,
        which bound every term's, sum to less than m.
        """
        width = self.width
        m = (1 << width) - 1
        fields = self._fields()
        if sum(fields[i] for i in idx) < m:
            mask = sum(m << (i * width) for i in idx)
            return map(m.__rmod__, map(mask.__and__, self.packed))
        return [sum(k >> (i * width) & m for i in idx) for k in self.packed]

    def total_degree(self):
        """Max total degree, or None for the zero polynomial."""
        if not self.packed:
            return None
        return max(self._degrees(range(len(self.vars))))

    def degree_in(self, var: str) -> int:
        if var not in self.vars:
            return 0
        shift, mask = self.vars.index(var) * self.width, (1 << self.width) - 1
        return max((k >> shift & mask for k in self.packed), default=0)

    def homogeneous_degree(self, in_vars=None):
        """Common degree of all terms (in in_vars if given); None if mixed.

        The zero polynomial reports 0.
        """
        if not self.packed:
            return 0
        if in_vars is None:
            idx = range(len(self.vars))
        else:
            lookup = {v: i for i, v in enumerate(self.vars)}
            idx = [lookup[v] for v in in_vars if v in lookup]
        degs = set(self._degrees(idx))
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_constant(self) -> bool:
        return not any(self.packed)

    def constant_value(self):
        """The value of a constant polynomial as a scalar."""
        if not self.packed:
            return 0
        if not self.is_constant():
            raise InputError(f"polynomial is not constant: {self}")
        return next(iter(self.packed.values()))

    def coefficient_map(self, var: str) -> dict:
        """Coefficients of self as a univariate in var: degree -> Poly."""
        if var not in self.vars:
            return {0: self} if self.packed else {}
        i = self.vars.index(var)
        width = self.width
        shift, mask = i * width, (1 << width) - 1
        rest_vars = self.vars[:i] + self.vars[i + 1 :]
        buckets: dict[int, dict] = {}
        for key, c in self.packed.items():
            k = key >> shift & mask
            buckets.setdefault(k, {})[key - (k << shift)] = c
        return {
            k: _new(rest_vars, width, self.top, _recoded(terms, self.vars, width, rest_vars, width))
            for k, terms in sorted(buckets.items())
        }

    def substitute(self, bindings) -> "Poly":
        """Simultaneous substitution var -> value (``_substituted``); a ring morphism.

        Each value is anything ``as_poly`` accepts: a Poly, a polynomial
        string, or a scalar.  A variable bound to itself is left unbound, so
        when every binding is one the result is self.
        """
        vals = _bound_values(bindings, self.vars)
        if not vals:
            return self
        vs, width, top, (packed,) = _substituted(
            [self.packed], self.vars, self.width, self.vars, vals
        )
        return _new(vs, width, top, packed)

    # -- display -----------------------------------------------------------------

    def sorted_terms(self):
        """Terms in display order: total degree descending, then exponents."""
        return sorted(
            self.terms.items(), key=lambda item: (-sum(item[0]), tuple(-e for e in item[0]))
        )

    def __str__(self) -> str:
        if not self.packed:
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
            return str(c), False
        c = r
    if c < 0:
        return decimal_str(-c), True
    return decimal_str(c), False


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
        u = self.underlying
        if len(u.packed) != 1:
            raise InputError("form has more than one term")
        ((key, c),) = u.packed.items()
        arg_set = set(self.arg_vars)
        width, mask = u.width, (1 << u.width) - 1
        arg_mask = 0
        arg_exps = {}
        for i, v in enumerate(u.vars):
            if v in arg_set:
                arg_mask |= mask << (i * width)
                e = key >> (i * width) & mask
                if e:
                    arg_exps[v] = e
        coeff = _new(u.vars, width, u.top, {key & ~arg_mask: c}).pruned()
        return coeff, arg_exps


# -- parsing -----------------------------------------------------------------

# Parentheses plus unary signs.  A parenthesis costs the parser four stack
# frames and a sign none, which keeps it far below Python's recursion limit.
MAX_NESTING = 100

# Largest predicted term count of a parsed power ``(...)^N`` (see
# ``_power_term_bound``).  Every power in the tests, demos and benchmark
# inputs raises a single term, which predicts 1.  Expansion costs about the
# square of the term count, so 1000 keeps the worst admitted power at 6-9 ms
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
    if type(c) is int:
        return abs(c).bit_length()
    parts = c.coeffs if isinstance(c, CycScalar) else (c,)
    return max(
        max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in parts if x
    )


# A one-term factor or term of the parser: (packed key, coefficient, width,
# top), the fields of a one-term Poly over the parser's variables.  A zero
# coefficient stands for the zero Poly, whose key is 0.
_ONE = (0, 1, _WIDTH, 0)


def _unpacked(x) -> tuple:
    """(width, top, term map) of a Poly or a one-term tuple of the parser."""
    if type(x) is tuple:
        key, c, width, top = x
        return width, top, ({key: c} if c else {})
    return x.width, x.top, x.packed


def _largest(key: int, width: int) -> int:
    """The largest exponent in a packed key."""
    mask, top = (1 << width) - 1, 0
    while key:
        top = max(top, key & mask)
        key >>= width
    return top


def _check_power(base, n: int) -> None:
    """Refuse base**n before expanding it if it could pass a cap.

    base is a Poly or the parser's one-term (key, coefficient, width, top).
    N is checked first and alone, so every later bound is computed, and
    printed, only for N at most ``MAX_EXPONENT``.
    """
    if n > MAX_EXPONENT:
        raise InputError(f"power ^{n} is above the exponent cap {MAX_EXPONENT}")
    width, top, packed = _unpacked(base)
    # top bounds every exponent, so the exact largest one is found only when
    # that bound passes the cap
    if n * top > MAX_EXPONENT:
        top = n * max((_largest(k, width) for k in packed), default=0)
        if top > MAX_EXPONENT:
            raise InputError(f"power ^{n} gives exponent {top}, above the cap {MAX_EXPONENT}")
    bound = _power_term_bound(base, n)
    if bound > MAX_POWER_TERMS:
        raise InputError(
            f"power ^{n} may expand to {bound} terms, above the cap {MAX_POWER_TERMS}"
        )
    bits = n * max(map(_coeff_bits, packed.values()), default=0)
    if bits > MAX_POWER_BITS:
        raise InputError(
            f"power ^{n} may give a {bits}-bit coefficient, above the cap {MAX_POWER_BITS}"
        )


def _power_term_bound(base, n: int) -> int:
    """Upper bound on the number of terms of base**n, without expanding it.

    base is a Poly or the parser's one-term tuple.  base**n has total degree
    at most n*deg in the k variables base uses, so at most C(k + n*deg, k)
    monomials; each of its terms is also a product of n of the t terms of
    base, so there are at most C(t + n - 1, n) of them.
    """
    if type(base) is tuple or len(base.packed) < 2:  # one term or none: at most one
        return 1
    k = sum(map(bool, base._fields()))  # the variables base uses
    by_degree = comb(k + n * base.total_degree(), k)
    return min(by_degree, comb(len(base.packed) + n - 1, n))


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
    tokens = [
        word or (_number(number) if number else _untokenizable(text))
        for number, word, _ in _TOKEN_RE.findall(text)
    ]
    tokens.append(None)
    return tokens


def _untokenizable(text: str):
    """Raise for the first character of text that starts no token."""
    m = next(m for m in _TOKEN_RE.finditer(text) if m.group(3))
    raise InputError(f"cannot tokenize polynomial at: {text[m.start():]!r}")


class _Parser:
    """Recursive descent over a token list, in one variable context.

    The context is fixed before the first token is read: the sorted names in
    the token list, zeta atoms excluded.  A factor or term of at most one
    term is a one-term tuple (see ``_ONE``).  A ``Poly`` over the context is
    built only for a parenthesized sum of several terms, a power or product
    of one, and the sum the text spells, which adds each term into one map
    in place.  Widths, scalar operations and key order follow the Poly
    arithmetic the text spells, so values, coefficient types and key order
    are those of that arithmetic; a key is re-encoded only where the width
    rule widens its fields.  ``seen`` lists the names read outside a ``^0``:
    the result's variables.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.seen = []
        names = [t for t in set(tokens) if type(t) is str and t[0].isalpha()]
        self.vars = tuple(sorted(v for v in names if not _ZETA_RE.fullmatch(v)))
        self.units = {v: 1 << (i * _WIDTH) for i, v in enumerate(self.vars)}

    def enter(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise InputError("polynomial nested too deeply")

    def widened(self, key: int, width: int, new_width: int) -> int:
        """A packed key over the parser's variables with new_width-bit fields."""
        if width == new_width:
            return key
        (key,) = _recoded({key: 0}, self.vars, width, self.vars, new_width)
        return key

    def parse_expr(self):
        """A sum or difference of terms added into one map in place; a lone term as it is."""
        term = self.parse_term()
        op = self.tokens[self.i]
        if op != "+" and op != "-":
            return term
        vars = self.vars
        width, top, terms = _unpacked(term)  # the parser's own map
        while op == "+" or op == "-":
            self.i += 1
            w, t, other = _unpacked(self.parse_term())
            top = max(top, t)
            if w != width or top >> width:
                new_width = _fit(top, max(width, w))
                terms = _recoded(terms, vars, width, vars, new_width)
                width = new_width
            if w != width:
                other = _recoded(other, vars, w, vars, width)
            (kernel.add_into if op == "+" else kernel.sub_into)(terms, other)
            op = self.tokens[self.i]
        return _new(vars, width, top, terms)

    def parse_term(self):
        """A product of factors, left to right."""
        acc = self.parse_factor()
        while self.tokens[self.i] == "*":
            self.i += 1
            acc = self.times(acc, self.parse_factor())
        return acc

    def times(self, a, b):
        """a * b, for Polys and one-term tuples.

        Two one-term factors add keys and multiply coefficients, in fields
        that hold the sum of the two bounds, and the product is bounded by
        its own key, as in ``Poly.__mul__``.  Otherwise the one-term side
        becomes a Poly and ``Poly.__mul__`` takes the product.
        """
        if type(a) is not tuple or type(b) is not tuple:
            return self.poly(a) * self.poly(b)
        ka, ca, wa, ta = a
        kb, cb, wb, tb = b
        top = ta + tb
        width = wa if wa == wb and not top >> wa else _fit(top, max(wa, wb))
        if not (ca and cb):
            return (0, 0, width, 0)
        key = self.widened(ka, wa, width) + self.widened(kb, wb, width)
        return (key, ca * cb, width, _largest(key, width))

    def poly(self, x) -> Poly:
        """A Poly or a one-term tuple as a Poly over the parser's variables."""
        return _new(self.vars, *_unpacked(x)) if type(x) is tuple else x

    def parse_factor(self):
        """A signed atom or power of one."""
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
        base = self.parse_atom(tok)
        if tokens[self.i] == "^":
            n = tokens[self.i + 1]
            self.i += 2
            if type(n) is not int:
                raise InputError("exponent must be a nonnegative integer")
            _check_power(base, n)
            if not n:
                del self.seen[mark:]  # names under a ^0 leave the result
                base = _ONE
            elif type(base) is not tuple:
                base = base**n
            else:  # one term or none: no product to take
                key, c, width, top = base
                top *= n
                new_width = _fit(top, width)
                base = (self.widened(key, width, new_width) * n, c**n, new_width, top)
        self.depth -= signs
        if not negate:
            return base
        if type(base) is tuple:
            key, c, width, top = base
            return (key, -c, width, top)
        return -base

    def parse_atom(self, tok):
        if tok == "(":
            self.enter()
            inner = self.parse_expr()
            if self.tokens[self.i] != ")":
                raise InputError("expected ')' in polynomial")
            self.i += 1
            self.depth -= 1
            if type(inner) is tuple or len(inner.packed) > 1:
                return inner
            # a sum that cancelled down to one term or none
            key, c = next(iter(inner.packed.items()), (0, 0))
            return (key, c, inner.width, inner.top)
        unit = self.units.get(tok)
        if unit is not None:
            self.seen.append(tok)
            return (unit, 1, _WIDTH, 1)
        if type(tok) is not str:
            if tok is None:
                raise InputError("unexpected token in polynomial: None")
            return (0, tok, _WIDTH, 0)
        m = _ZETA_RE.fullmatch(tok)
        if m:
            digits = m.group(1)
            try:
                order = int(digits)
            except ValueError:  # more digits than int() converts
                raise InputError(f"zeta order of {len(digits)} digits is too long") from None
            return (0, narrow(make_root(order)), _WIDTH, 0)
        raise InputError(f"unexpected token in polynomial: {tok!r}")


def parse_poly(text: str) -> Poly:
    """Parse the textual polynomial syntax; raises InputError on bad input."""
    if not isinstance(text, str) or not text.strip():
        raise InputError("empty polynomial string")
    parser = _Parser(_tokenize(text))
    p = parser.parse_expr()
    tok = parser.tokens[parser.i]
    if tok is not None:
        raise InputError(f"trailing input in polynomial: {tok!r}")
    p = parser.poly(p)
    vars = tuple(sorted(set(parser.seen)))
    if vars != parser.vars:  # some names were read only under a ^0
        p = _new(vars, p.width, p.top, _recoded(p.packed, parser.vars, p.width, vars, p.width))
    return p


def as_poly(x) -> Poly:
    """A Poly, polynomial string or scalar as a Poly; InputError otherwise."""
    if isinstance(x, Poly):
        return x
    if isinstance(x, str):
        return parse_poly(x)
    if isinstance(x, Scalar):
        return Poly.const(x)
    raise InputError(f"cannot interpret {type(x).__name__} as a polynomial")
