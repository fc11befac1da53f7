"""Coefficients in their cheapest exact type give the same values and key order.

Polynomials and matrices store an integral coefficient as ``int``, a rational
one as ``Fraction`` and a rational-valued ``CycScalar`` as its rational value.
Every operation must give what it gives on copies whose coefficients are all
wrapped as ``Fraction``/``CycScalar`` (the wide storage the term maps used
before): equal coefficient for coefficient, in the same key order.
"""

import random
from fractions import Fraction

import pytest

from robyclif.matrix import PolyMatrix
from robyclif.poly import Poly
from robyclif.scalars import CycScalar, make_root

CONTEXTS = (("x", "y"), ("y", "z"), ("x",), ())


def draw(rng):
    """A nonzero scalar of one of the kinds term maps can be handed."""
    k = rng.choice((-3, -2, -1, 1, 2, 3))
    kind = rng.randrange(7)
    if kind == 0:
        return k
    if kind == 1:
        return Fraction(k)
    if kind == 2:
        return Fraction(k, rng.choice((2, 3, 5)))
    if kind == 3:
        return CycScalar(1, [k])
    if kind == 4:
        return make_root(2) ** rng.randrange(2) * k
    if kind == 5:
        return CycScalar(3, [Fraction(k, 2), 0])
    return make_root(rng.choice((3, 4, 6))) * k + rng.randrange(-2, 3)


def wide(c):
    return Fraction(c) if isinstance(c, int) else c


def cheapest_type(c):
    if isinstance(c, CycScalar):
        c = c.as_rational()
        if c is None:
            return CycScalar
    return int if Fraction(c).denominator == 1 else Fraction


def poly_pair(rng, names):
    """(narrow, wide) copies of one random polynomial in the context names."""
    terms = {tuple(rng.randrange(3) for _ in names): draw(rng) for _ in range(rng.randrange(5))}
    narrow = Poly(names, terms)
    old = Poly(names, {e: wide(c) for e, c in terms.items()}, _canonical=True)
    assert narrow.vars == old.vars == names
    assert all(type(c) is cheapest_type(c) for c in narrow.terms.values()), narrow
    return narrow, old


def matrix_pair(rng, n, names):
    pairs = [poly_pair(rng, names) if rng.random() < 0.6 else (Poly.zero(), Poly.zero())
             for _ in range(n * n)]
    new = PolyMatrix(n, n, names, [p.terms for p, _ in pairs])
    old = PolyMatrix(n, n, names, [q.terms for _, q in pairs])
    return new, old


def term_maps(x):
    return [x.terms] if isinstance(x, Poly) else [p.terms for row in x.rows() for p in row]


def assert_same(new, old, where):
    assert new.vars == old.vars, where
    for k, (a, b) in enumerate(zip(term_maps(new), term_maps(old), strict=True)):
        assert list(a) == list(b), f"{where}: key order of entry {k}"
        for exp, c in a.items():
            assert not isinstance(c, float), where
            assert c == b[exp], f"{where}: entry {k} at {exp}: {c!r} != {b[exp]!r}"


def test_poly_operations_match_the_wide_representation():
    rng = random.Random(2024)
    for trial in range(300):
        a, a0 = poly_pair(rng, rng.choice(CONTEXTS))
        b, b0 = poly_pair(rng, rng.choice(CONTEXTS))
        s = draw(rng)
        n = rng.randrange(4)
        var = rng.choice(("x", "y", "z"))
        cases = {
            "+": (a + b, a0 + b0),
            "-": (a - b, a0 - b0),
            "*": (a * b, a0 * b0),
            "* scalar": (a * s, a0 * wide(s)),
            "/": (a / s, a0 / wide(s)),
            "pow": (a ** n, a0 ** n),
            "substitute": (a.substitute({var: b}), a0.substitute({var: b0})),
        }
        for op, (new, old) in cases.items():
            assert_same(new, old, f"trial {trial}, {op}: {a} and {b}, scalar {s}")


def test_matrix_operations_match_the_wide_representation():
    rng = random.Random(77)
    for trial in range(120):
        n = rng.randrange(1, 4)
        m, m0 = matrix_pair(rng, n, rng.choice(CONTEXTS))
        k, k0 = matrix_pair(rng, n, rng.choice(CONTEXTS))
        p, p0 = poly_pair(rng, rng.choice(CONTEXTS))
        s = draw(rng)
        cases = {
            "+": (m + k, m0 + k0),
            "-": (m - k, m0 - k0),
            "*": (m * k, m0 * k0),
            "kron": (m.kron(k), m0.kron(k0)),
            "pow": (m.pow(2), m0.pow(2)),
            "scaled": (m.scaled(s), m0.scaled(wide(s))),
            "combination": (
                PolyMatrix.combination([(s, m), (p, k)], n),
                PolyMatrix.combination([(wide(s), m0), (p0, k0)], n),
            ),
            "substitute": (m.substitute({"y": p}), m0.substitute({"y": p0})),
        }
        for op, (new, old) in cases.items():
            assert_same(new, old, f"trial {trial}, {op}")


@pytest.mark.parametrize(
    "check",
    [
        test_poly_operations_match_the_wide_representation,
        test_matrix_operations_match_the_wide_representation,
    ],
    ids=lambda check: check.__name__,
)
def test_under_each_encoding(forced_encodings, check):
    check()
