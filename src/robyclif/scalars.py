"""Exact arithmetic in cyclotomic fields Q(zeta_e).

A ``CycScalar`` is a residue modulo the e-th cyclotomic polynomial Phi_e with
arbitrary-precision rational coefficients, so every operation is exact.  The
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

from .errors import InputError

__all__ = [
    "CycScalar",
    "make_root",
    "cyc_arith",
    "is_primitive_root",
    "parse_scalar",
    "scalar_to_string",
]

# Largest cyclotomic order any CycScalar may have: roots, literals, lcm lifts.
ORDER_CAP = 128

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def _poly_trim(cs: list[Fraction]) -> list[Fraction]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _poly_trim(out)


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    # Coefficients form a field, so plain long division is exact.
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    if db < 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_ZERO] * max(0, len(a) - db)
    while len(a) - 1 >= db and _poly_trim(a):
        da = len(a) - 1
        if da < db:
            break
        c = a[-1] / lead
        q[da - db] = c
        for i in range(db + 1):
            a[da - db + i] -= c * b[i]
        _poly_trim(a)
    return _poly_trim(q), a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[Fraction, ...]:
    """Ascending coefficients of Phi_e, via Phi_e = (x^e - 1) / prod Phi_d."""
    if e == 1:
        return (Fraction(-1), _ONE)
    num = [_ZERO] * (e + 1)
    num[0], num[e] = Fraction(-1), _ONE
    for d in range(1, e):
        if e % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            if rem:
                raise AssertionError("cyclotomic division left a remainder")
    return tuple(num)


def _reduce_mod_phi(cs: list[Fraction], e: int) -> tuple[Fraction, ...]:
    """Reduce an ascending coefficient list modulo Phi_e; fixed width phi(e)."""
    phi = cyclotomic_polynomial(e)
    d = len(phi) - 1
    cs = list(cs)
    for top in range(len(cs) - 1, d - 1, -1):
        c = cs[top]
        if c:
            cs[top] = _ZERO
            for i in range(d):
                cs[top - d + i] -= c * phi[i]
    cs = cs[:d]
    cs.extend([_ZERO] * (d - len(cs)))
    return tuple(cs)


def _as_fraction(x) -> Fraction | None:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return None


class CycScalar:
    """An element of Q(zeta_e), stored as a residue mod Phi_e.

    Instances are immutable.  Arithmetic against int/Fraction promotes the
    rational operand; arithmetic between different orders lifts both to the
    lcm order.  Unhashable on purpose: equal values can live at different
    orders, and nothing in this package keys on scalars.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs) -> None:
        if not isinstance(order, int) or order < 1:
            raise InputError(f"cyclotomic order must be a positive integer, got {order!r}")
        if order > ORDER_CAP:
            raise InputError(f"cyclotomic order {order} exceeds the cap {ORDER_CAP}")
        self.order = order
        cs = [Fraction(c) for c in coeffs]
        self.coeffs = _reduce_mod_phi(cs, order)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycScalar":
        f = _as_fraction(value)
        if f is None:
            raise InputError(f"not a rational value: {value!r}")
        return cls(order, [f])

    # -- structure --------------------------------------------------------

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction if it lies in Q, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0] if self.coeffs else _ZERO

    def lift(self, order: int) -> "CycScalar":
        """Embed into Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise InputError(f"no embedding of order {self.order} into order {order}")
        k = order // self.order
        cs = [_ZERO] * ((len(self.coeffs) - 1) * k + 1 or 1)
        for i, c in enumerate(self.coeffs):
            if c:
                cs[i * k] = c
        return CycScalar(order, cs)

    def _paired(self, other):
        """Coerce other to a CycScalar on a common order, or None."""
        f = _as_fraction(other)
        if f is not None:
            return self, CycScalar(self.order, [f])
        if not isinstance(other, CycScalar):
            return None
        if other.order == self.order:
            return self, other
        common = self.order * other.order // gcd(self.order, other.order)
        return self.lift(common), other.lift(common)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        pair = self._paired(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CycScalar(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._paired(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CycScalar(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return CycScalar(self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        f = _as_fraction(other)
        if f is not None:
            return CycScalar(self.order, [c * f for c in self.coeffs])
        pair = self._paired(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CycScalar(a.order, _poly_mul(list(a.coeffs), list(b.coeffs)))

    __rmul__ = __mul__

    def _inverse(self) -> "CycScalar":
        if not self:
            raise ZeroDivisionError("cyclotomic division by zero")
        # Extended Euclid in Q[x] against Phi_e (irreducible, so gcd is 1).
        r0 = list(cyclotomic_polynomial(self.order))
        r1 = _poly_trim(list(self.coeffs))
        s0: list[Fraction] = []
        s1: list[Fraction] = [_ONE]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 = gcd (a nonzero constant); s0 * self == r0 mod Phi_e.
        c = r0[0]
        inv = [x / c for x in s0]
        return CycScalar(self.order, inv)

    def __truediv__(self, other):
        f = _as_fraction(other)
        if f is not None:
            if not f:
                raise ZeroDivisionError("cyclotomic division by zero")
            return CycScalar(self.order, [c / f for c in self.coeffs])
        pair = self._paired(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b._inverse()

    def __rtruediv__(self, other):
        f = _as_fraction(other)
        if f is None:
            return NotImplemented
        return self._inverse() * f

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self._inverse() ** (-n)
        result = CycScalar(self.order, [_ONE])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        f = _as_fraction(other)
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


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = list(a) + [_ZERO] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _poly_trim(out)


def make_root(e: int) -> CycScalar:
    """A primitive e-th root of unity zeta_e as a CycScalar of order e."""
    if not isinstance(e, int) or e < 1:
        raise InputError(f"root order must be a positive integer, got {e!r}")
    if e == 1:
        return CycScalar(1, [_ONE])
    cs = [_ZERO, _ONE]
    return CycScalar(e, cs)


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
    "div": lambda a, b: a / b,
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
    f = _as_fraction(x)
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
        return Fraction(s)
    except ValueError as exc:
        raise InputError(f"malformed scalar literal: {s!r}") from exc
