"""Exact arithmetic in cyclotomic fields Q(zeta_e).

A ``CycScalar`` is a residue modulo the e-th cyclotomic polynomial Phi_e,
stored as phi(e) rational coefficients (``int`` when integral, ``Fraction``
otherwise), so every operation is exact.  A scalar entering a polynomial or
matrix is held in the cheapest type that holds its value (:func:`narrow`):
``int`` when integral, ``Fraction`` when rational and not integral,
``CycScalar`` only when the value is not in Q; products and sums of
coefficients are not narrowed again.  ``int / int`` is a float in Python, so every
division goes through :func:`exact_div`.  The primitive root returned by
:func:`make_root` powers the sign twist of the graded tensor product, where
primitivity is load-bearing; callers can check it with
:func:`is_primitive_root` instead of trusting the construction.

Rationals embed in Q(zeta_e) for every e.  Two cyclotomics of different
orders are lifted to the lcm order before combining.  Every field is built
through the ``CycScalar`` constructor, which caps the order before computing
Phi_e, so a typo cannot silently allocate a degree-ten-thousand field.

Arithmetic costs about as much as the coefficients it touches:

- ``+``, ``-``, ``*`` and ``==`` between two values of one order take a fast
  path that tests ``type(other) is CycScalar`` and the orders before anything
  else; mixed orders lift to the lcm order first.
- Every product is :func:`_product`: the schoolbook product of the two
  coefficient tuples, whose degrees phi(e)..2phi(e)-2 are folded back with a
  per-order table of x^n mod Phi_e (:func:`_fold_table`, built once from
  :func:`_reduce_mod_phi` and cached; orders are capped at ``ORDER_CAP``).
- Scaling by 1 returns the (immutable) value itself and scaling by -1
  negates it.
- Results are built without the constructor's checks.  Their coefficients
  are narrowed (an integral ``Fraction`` becomes an ``int``) only when a
  ``Fraction`` occurs among them, so ``int`` arithmetic pays nothing for it.

Same-order products and sums repeat: a check over Q(zeta_e) multiplies the
same few coefficients again and again (a diagonal module of dim 125 makes
about 1,200 products, of which about 100 are distinct).  So :func:`_product`
and :func:`_sum` are memoized, each by a ``functools.lru_cache`` of
``CACHE_SIZE`` entries, and a repeat costs one lookup.  This is exact:

- a same-order result depends only on the order and the two reduced
  coefficient tuples, and the order is part of the key;
- the tuples are canonical: the constructor and :func:`_reduced` store an
  integral value as ``int``, never as a ``Fraction``, and a non-integral one
  as a ``Fraction`` in lowest terms, so equal keys hold equal values of the
  same types;
- results are immutable, so one result may be handed to every caller.

The caches are bounded (least recently used entries go first), so a long
run over many fields holds at most ``2 * CACHE_SIZE`` results.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, neg, sub

from .errors import InputError
from .kernel import power

__all__ = [
    "CycScalar",
    "exact_div",
    "narrow",
    "make_root",
    "cyc_arith",
    "is_primitive_root",
    "decimal_str",
]

# Largest cyclotomic order any CycScalar may have: roots, literals, lcm lifts.
ORDER_CAP = 128

# Entries in each of the same-order product and sum caches.
CACHE_SIZE = 4096


@lru_cache(maxsize=None)
def euler_phi(e: int) -> int:
    """Euler's totient, by trial factorization (orders stay small here)."""
    n, result, p = e, e, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _poly_trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _poly_mul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _poly_trim(out)


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    # Coefficients form a field, so plain long division is exact.
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and _poly_trim(a):
        da = len(a) - 1
        if da < db:
            break
        c = exact_div(a[-1], lead)
        q[da - db] = c
        for i in range(db + 1):
            a[da - db + i] -= c * b[i]
        _poly_trim(a)
    return _poly_trim(q), a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Ascending integer coefficients of Phi_e, via Phi_e = (x^e - 1) / prod Phi_d."""
    if e == 1:
        return (-1, 1)
    num = [0] * (e + 1)
    num[0], num[e] = -1, 1
    for d in range(1, e):
        if e % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            if rem:
                raise AssertionError("cyclotomic division left a remainder")
    return tuple(num)


def _reduce_mod_phi(cs: list, e: int) -> tuple:
    """Reduce an ascending coefficient list modulo Phi_e; fixed width phi(e)."""
    phi = cyclotomic_polynomial(e)
    d = len(phi) - 1
    cs = list(cs)
    for top in range(len(cs) - 1, d - 1, -1):
        c = cs[top]
        if c:
            cs[top] = 0
            for i in range(d):
                cs[top - d + i] -= c * phi[i]
    cs = cs[:d]
    cs.extend([0] * (d - len(cs)))
    return tuple(cs)


@lru_cache(maxsize=None)
def _fold_table(e: int) -> tuple:
    """x^n mod Phi_e for phi(e) <= n <= 2 phi(e) - 2, as (k, c) pairs of nonzero c x^k.

    Row n - phi(e) folds degree n of a product of two reduced residues.
    """
    d = euler_phi(e)
    rows = (_reduce_mod_phi([0] * n + [1], e) for n in range(d, 2 * d - 1))
    return tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in rows)


def _rational(x):
    """An int or Fraction x as an int when integral; None for other types."""
    if type(x) is int:
        return x
    if type(x) is Fraction or isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):  # bool
        return int(x)
    return None


def narrow(x):
    """An exact scalar in the cheapest type that holds its value.

    ``int`` when integral, ``Fraction`` when rational, and ``CycScalar`` only
    when the value is not in Q; anything else is an ``InputError``.
    """
    r = _rational(x)
    if r is not None:
        return r
    if isinstance(x, CycScalar):
        r = x.as_rational()
        return x if r is None else _rational(r)
    raise InputError(f"not an exact scalar: {x!r}")


def exact_div(a, b):
    """a / b as an exact scalar, never a float.

    ``int / int`` is an ``int`` when b divides a and a ``Fraction`` otherwise;
    every other pairing is ``Fraction`` or ``CycScalar`` division.  A zero
    divisor raises ``ZeroDivisionError``.
    """
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


class CycScalar:
    """An element of Q(zeta_e), stored as a residue mod Phi_e.

    Instances are immutable.  Arithmetic against int/Fraction acts on the
    coefficients directly; arithmetic between different orders lifts both to
    the lcm order.  Unhashable on purpose: equal values can live at different
    orders, and nothing in this package keys on scalars (the product and sum
    caches key on an order and two coefficient tuples).
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        if not isinstance(order, int) or order < 1:
            raise InputError(f"cyclotomic order must be a positive integer, got {order!r}")
        if order > ORDER_CAP:
            raise InputError(f"cyclotomic order {order} exceeds the cap {ORDER_CAP}")
        self.order = order
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        self.coeffs = tuple(map(_rational, _reduce_mod_phi(cs, order)))

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycScalar":
        f = _rational(value)
        if f is None:
            raise InputError(f"not a rational value: {value!r}")
        return cls(order, [f])

    # -- structure --------------------------------------------------------

    def as_rational(self):
        """The value as an int or Fraction if it lies in Q, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def lift(self, order: int) -> "CycScalar":
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise InputError(f"no embedding of order {self.order} into order {order}")
        k = order // self.order
        cs = [0] * ((len(self.coeffs) - 1) * k + 1 or 1)
        for i, c in enumerate(self.coeffs):
            if c:
                cs[i * k] = c
        return CycScalar(order, cs)

    def _paired(self, other: "CycScalar"):
        """self and other on their lcm order."""
        if other.order == self.order:
            return self, other
        common = self.order * other.order // gcd(self.order, other.order)
        return self.lift(common), other.lift(common)

    # -- arithmetic -------------------------------------------------------
    # Sums, differences, negation and rational scaling keep the reduced
    # width phi(e), so they skip the reduction; products fold through the
    # order's table.  Same-order operands skip _rational altogether.

    def __add__(self, other):
        if type(other) is CycScalar and other.order == self.order:
            return _sum(self.order, self.coeffs, other.coeffs)
        f = _rational(other)
        if f is not None:
            return _reduced(self.order, (self.coeffs[0] + f,) + self.coeffs[1:])
        if not isinstance(other, CycScalar):
            return NotImplemented
        a, b = self._paired(other)
        return _sum(a.order, a.coeffs, b.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is CycScalar and other.order == self.order:
            return _reduced(self.order, tuple(map(sub, self.coeffs, other.coeffs)))
        f = _rational(other)
        if f is not None:
            return _reduced(self.order, (self.coeffs[0] - f,) + self.coeffs[1:])
        if not isinstance(other, CycScalar):
            return NotImplemented
        a, b = self._paired(other)
        return _reduced(a.order, tuple(map(sub, a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _reduced(self.order, tuple(map(neg, self.coeffs)))

    def __mul__(self, other):
        if type(other) is CycScalar and other.order == self.order:
            return _product(self.order, self.coeffs, other.coeffs)
        f = _rational(other)
        if f is not None:
            if f == 1:
                return self
            if f == -1:
                return -self
            return _reduced(self.order, tuple(c * f for c in self.coeffs))
        if not isinstance(other, CycScalar):
            return NotImplemented
        a, b = self._paired(other)
        return _product(a.order, a.coeffs, b.coeffs)

    __rmul__ = __mul__

    def _inverse(self) -> "CycScalar":
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        # Extended Euclid in Q[x] against Phi_e (irreducible, so gcd is 1).
        r0 = list(cyclotomic_polynomial(self.order))
        r1 = _poly_trim(list(self.coeffs))
        s0: list = []
        s1: list = [1]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 = gcd (a nonzero constant); s0 * self == r0 mod Phi_e.
        c = r0[0]
        return CycScalar(self.order, [exact_div(x, c) for x in s0])

    def __truediv__(self, other):
        f = _rational(other)
        if f is not None:
            if not f:
                raise ZeroDivisionError("cyclotomic division by zero")
            return _reduced(self.order, tuple(exact_div(c, f) for c in self.coeffs))
        if not isinstance(other, CycScalar):
            return NotImplemented
        a, b = self._paired(other)
        return a * b._inverse()

    def __rtruediv__(self, other):
        f = _rational(other)
        if f is None:
            return NotImplemented
        return self._inverse() * f

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self._inverse() ** (-n)
        if not n:
            return CycScalar(self.order, [1])
        return power(self, n)

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        if type(other) is CycScalar and other.order == self.order:
            return self.coeffs == other.coeffs
        f = _rational(other)
        if f is not None:
            r = self.as_rational()
            return r is not None and r == f
        if not isinstance(other, CycScalar):
            return NotImplemented
        a, b = self._paired(other)
        return a.coeffs == b.coeffs

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None  # type: ignore[assignment]  # see module docstring

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __str__(self) -> str:
        """The value as ``parse_poly`` reads it.

        A rational value prints as the rational, any other as a
        parenthesized zeta-expression such as ``(1 - 2*zeta6^2)``.
        """
        r = self.as_rational()
        if r is not None:
            return decimal_str(r)
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            atom = decimal_str(abs(c))
            if i:
                zeta = f"zeta{self.order}" if i == 1 else f"zeta{self.order}^{i}"
                atom = zeta if abs(c) == 1 else f"{atom}*{zeta}"
            if not parts:
                parts.append(f"-{atom}" if c < 0 else atom)
            else:
                parts.append(f"- {atom}" if c < 0 else f"+ {atom}")
        return "(" + " ".join(parts) + ")"

    def __repr__(self) -> str:
        return f"CycScalar({str(self)!r})"


def _reduced(order: int, coeffs: tuple) -> CycScalar:
    """A CycScalar from a tuple already reduced mod Phi_order (width phi(order)).

    The constructor's checks are skipped; an integral ``Fraction`` is stored
    as an int, and only a tuple holding a ``Fraction`` is looked at again.
    """
    if Fraction in map(type, coeffs):
        coeffs = tuple(map(_rational, coeffs))
    x = object.__new__(CycScalar)
    x.order = order
    x.coeffs = coeffs
    return x


@lru_cache(maxsize=CACHE_SIZE)
def _sum(order: int, a: tuple, b: tuple) -> CycScalar:
    """a + b in Q(zeta_order), for coefficient tuples reduced mod Phi_order."""
    return _reduced(order, tuple(map(add, a, b)))


@lru_cache(maxsize=CACHE_SIZE)
def _product(order: int, a: tuple, b: tuple) -> CycScalar:
    """a * b in Q(zeta_order), for coefficient tuples reduced mod Phi_order."""
    d = len(a)
    out = [0] * (2 * d - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    low = out[:d]
    for row, c in zip(_fold_table(order), out[d:]):
        if c:
            for k, r in row:
                low[k] += c * r
    return _reduced(order, tuple(low))


def _poly_sub(a: list, b: list) -> list:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _poly_trim(out)


def make_root(e: int) -> CycScalar:
    """A primitive e-th root of unity zeta_e as a CycScalar of order e."""
    if not isinstance(e, int) or e < 1:
        raise InputError(f"root order must be a positive integer, got {e!r}")
    if e == 1:
        return CycScalar(1, [1])
    return CycScalar(e, [0, 1])


def is_primitive_root(x, e: int) -> bool:
    """True iff x^e == 1 and no smaller positive power is 1."""
    if e < 1:
        return False
    acc = x
    for k in range(1, e):
        if acc == 1:
            return False
        acc = acc * x
    return acc == 1


_ARITH_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": exact_div,
}


def cyc_arith(a, b, op: str):
    """Dispatch one exact field operation; op in {add, sub, mul, div}."""
    try:
        fn = _ARITH_OPS[op]
    except KeyError:
        raise InputError(f"unknown scalar operation {op!r}") from None
    return fn(a, b)


def decimal_str(x) -> str:
    """``str`` of an int or Fraction, or InputError if Python cannot print it.

    Python refuses to convert an int of more decimal digits than
    ``sys.get_int_max_str_digits()``.  The limit is checked before
    converting, by bit length first (2^(3L) < 10^L), and never raised.
    """
    limit = sys.get_int_max_str_digits()
    if limit:
        parts = (x.numerator, x.denominator) if isinstance(x, Fraction) else (x,)
        for n in parts:
            if n.bit_length() > 3 * limit and abs(n) >= 10**limit:
                raise InputError(
                    f"a coefficient of {n.bit_length()} bits has more than {limit} decimal "
                    f"digits, the interpreter's limit for printing an integer"
                )
    return str(x)
