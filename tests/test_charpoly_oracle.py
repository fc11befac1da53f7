"""Berkowitz characteristic polynomials against SymPy's, which shares no code here.

SymPy is a test-only oracle: the module is skipped where it is not installed.
"""

import random
from fractions import Fraction

import pytest

from robyclif.freealg import char_poly, char_poly_of_matrix, monogenic_algebra, split_algebra
from robyclif.matrix import PolyMatrix
from robyclif.poly import Poly, parse_poly
from robyclif.specfile import parse_algebra
from test_freealg import UNIT_SECOND_ALGEBRA

sympy = pytest.importorskip("sympy")

QUINTIC = "z^5 - x*z^3 - y^2*z - x^5 - y^5 - z2^5"


def sympy_charpoly(m: PolyMatrix, tvar: str = "t") -> Poly:
    """det(tvar*I - m) by SymPy's ``charpoly_berk`` over QQ[m.vars], as a Poly."""
    names = m.vars
    QQ = sympy.QQ
    R = sympy.polys.rings.ring(",".join(names), QQ)[0]
    rows = [
        [
            R.from_dict({
                tuple(dict(zip(p.vars, e)).get(v, 0) for v in names): QQ(c.numerator, c.denominator)
                for e, c in p.terms.items()
            })
            for p in row
        ]
        for row in m.rows()
    ]
    coeffs = sympy.polys.matrices.DomainMatrix(rows, m.shape, R.to_domain()).charpoly_berk()
    n = m.nrows
    terms = {
        monom + (n - i,): Fraction(int(c.numerator), int(c.denominator))
        for i, el in enumerate(coeffs)
        for monom, c in el.items()
    }
    return Poly(names + (tvar,), terms)


def random_poly_matrix(rng, n):
    def entry():
        if rng.random() < 0.2:
            return 0
        return sum(
            (
                Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
                * Poly.variable("x") ** rng.randrange(3)
                * Poly.variable("y") ** rng.randrange(3)
                for _ in range(rng.randrange(1, 4))
            ),
            Poly.zero(),
        )

    return PolyMatrix.from_rows([[entry() for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("d", [3, 4, 5])
def test_split_algebras(d):
    rho = split_algebra(d).regular_representation()
    assert char_poly_of_matrix(rho) == sympy_charpoly(rho)


def test_quadric_cover():
    rho = monogenic_algebra(parse_poly("z^2 - x*y - z2^2"), "z").regular_representation()
    assert char_poly_of_matrix(rho) == sympy_charpoly(rho)


def test_fat_cover_on_packed_keys():
    rho = monogenic_algebra(parse_poly(QUINTIC), "z").regular_representation()
    ours = char_poly_of_matrix(rho)
    assert len(ours.terms) > 500
    assert ours == sympy_charpoly(rho)


@pytest.mark.parametrize(
    "algebra",
    [
        pytest.param(monogenic_algebra(parse_poly(QUINTIC), "z"), id="quintic cover"),
        pytest.param(parse_algebra(UNIT_SECOND_ALGEBRA), id="unit is gamma_2"),
    ],
)
def test_unit_shifted_char_poly(algebra):
    assert algebra.unit_index is not None
    assert char_poly(algebra).poly == sympy_charpoly(algebra.regular_representation())


@pytest.mark.parametrize("n", [3, 4])
def test_random_polynomial_matrices(n):
    rng = random.Random(100 + n)
    for _ in range(4):
        m = random_poly_matrix(rng, n)
        assert m.vars == ("x", "y")
        assert char_poly_of_matrix(m) == sympy_charpoly(m)
