"""Exact arithmetic in cyclotomic fields Q(zeta_e).

A ``CycScalar`` is a residue modulo the e-th cyclotomic polynomial Phi_e with
arbitrary-precision rational coefficients (``int`` when integral,
``Fraction`` otherwise), so every operation is exact.  Polynomial and matrix
coefficients are held in the cheapest type that holds their value
(:func:`narrow`): ``int`` when integral, ``Fraction`` when rational and not
integral, ``CycScalar`` only when the value is not in Q.  ``int / int`` is
a float in Python, so every division goes through :func:`exact_div`.  The
primitive root returned by :func:`make_root` powers the sign twist of the
graded tensor product, where primitivity is load-bearing; callers can check it
with :func:`is_primitive_root` instead of trusting the construction.

Rationals embed in Q(zeta_e) for every e.  Two cyclotomics of different
orders are lifted to the lcm order before combining.  Every field is built
through the ``CycScalar`` constructor, which caps the order before computing
Phi_e, so a typo cannot silently allocate a degree-ten-thousand field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, neg, sub

from .errors import InputError

__all__ = [
    "CycScalar",
    "exact_div",
    "narrow",
    "make_root",
    "cyc_arith",
    "is_primitive_root",
    "parse_scalar",
    "scalar_to_string",
]

# Largest cyclotomic order any CycScalar may have: roots, literals, lcm lifts.
ORDER_CAP = 128


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


def _rational(x):
    """An int or Fraction x as an int when integral; None for other types."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
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
    orders, and nothing in this package keys on scalars.
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
    # width phi(e), so they skip the reduction; only products and lifts
    # reduce modulo Phi_e.

    def __add__(self, other):
        f = _rational(other)
        if f is not None:
            return _reduced(self.order, (self.coeffs[0] + f,) + self.coeffs[1:])
        if not isinstance(other, CycScalar):
            return NotImplemented
        a, b = self._paired(other)
        return _reduced(a.order, tuple(map(add, a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
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
        f = _rational(other)
        if f is not None:
            return _reduced(self.order, tuple(c * f for c in self.coeffs))
        if not isinstance(other, CycScalar):
            return NotImplemented
        a, b = self._paired(other)
        return CycScalar(a.order, _poly_mul(a.coeffs, b.coeffs))

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
        result = CycScalar(self.order, [1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
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
        return scalar_to_string(self)

    def __repr__(self) -> str:
        return f"CycScalar({scalar_to_string(self)!r})"


def _reduced(order: int, coeffs: tuple) -> CycScalar:
    """A CycScalar from a tuple already reduced mod Phi_order (width phi(order))."""
    x = object.__new__(CycScalar)
    x.order = order
    x.coeffs = coeffs
    return x


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


def scalar_to_string(x) -> str:
    """Serialize a scalar: rationals as ``p/q``, cyclotomics as ``poly(e; ...)``."""
    f = _rational(x)
    if f is not None:
        return str(f)
    if isinstance(x, CycScalar):
        r = x.as_rational()
        if r is not None:
            return str(r)
        body = ", ".join(str(c) for c in x.coeffs)
        return f"poly({x.order}; {body})"
    raise InputError(f"not a scalar: {x!r}")


def parse_scalar(s: str):
    """Inverse of :func:`scalar_to_string`."""
    s = s.strip()
    if s.startswith("poly(") and s.endswith(")"):
        inner = s[5:-1]
        head, sep, tail = inner.partition(";")
        if not sep:
            raise InputError(f"malformed cyclotomic literal: {s!r}")
        try:
            order = int(head.strip())
            coeffs = [Fraction(part.strip()) for part in tail.split(",")] if tail.strip() else []
        except ValueError as exc:
            raise InputError(f"malformed cyclotomic literal: {s!r}") from exc
        return CycScalar(order, coeffs)
    try:
        return _rational(Fraction(s))
    except ValueError as exc:
        raise InputError(f"malformed scalar literal: {s!r}") from exc
