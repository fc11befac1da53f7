"""Cayley-Hamilton decided on the unit column against the full evaluation.

``cayley_hamilton_check`` and ``verify_char_morphism`` decide chi(C(a)) = 0
on the rank x 1 column chi(rho(a)) 1 when the action laws hold, and form
chi(C(a)) in full otherwise.  Here every fixture's ``cayley_hamilton`` row
(verdict and detail) is compared with ``check_vanishes`` on the full
``evaluate_matrix``, the evaluation made before the column existed.  The
fixtures cover the four cases: laws and identity both holding, laws holding
and the identity failing, laws failing and the identity holding, and both
failing.  A spy on ``PolyMatrix.__mul__`` checks that a passing check forms
no matrix of the full size outside the laws.
"""

from functools import partial
from pathlib import Path

import pytest

from robyclif import cli
from robyclif.errors import InputError, VerificationError
from robyclif.freealg import (
    CharPoly,
    FreeAlgebra,
    cayley_hamilton_by_laws,
    cayley_hamilton_check,
    char_poly,
    monogenic_algebra,
    split_algebra,
)
from robyclif.matrix import PolyMatrix, check_vanishes
from robyclif.pipeline import run_pipeline
from robyclif.poly import Poly, parse_poly
from robyclif.report import Report
from robyclif.roby import CharMorphism, char_morphism, fresh_names, verify_char_morphism
from robyclif.specfile import parse_roby_module

from test_point_oracle import demo_spec, noncommuting_counterexample

GOLDEN = Path(__file__).resolve().parent / "golden"
CUBIC = "z^3 - x*z - y"


def cubic():
    return monogenic_algebra(parse_poly(CUBIC), "z")


def unit_row_wrong():
    # the unit coordinates are e_1, but the unit's row says 1 * z = z + w
    zero = [0, 0, 0]
    table = [
        [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
        [[0, 1, 0], zero, zero],
        [[0, 0, 1], zero, zero],
    ]
    return FreeAlgebra(["1", "z", "w"], table, validate=False)


# name -> (algebra, chi or None for its own), for cayley_hamilton_check
ALGEBRAS = {
    "split 2, chi = t^2 - x1*t": lambda: (
        split_algebra(2), CharPoly(2, parse_poly("t^2 - x1*t"), "t", ("x1", "x2"))
    ),
    "split 3": lambda: (split_algebra(3), None),
    CUBIC: lambda: (cubic(), None),
    f"{CUBIC} against chi of z^3 - x*z - 2*y": lambda: (
        cubic(), char_poly(monogenic_algebra(parse_poly("z^3 - x*z - 2*y"), "z"))
    ),
    "unit row wrong": lambda: (unit_row_wrong(), None),
}


def wrong_cubic_morphism():
    # C(gamma) = I and two matrices that are not an action of the cubic
    algebra = cubic()
    m1 = PolyMatrix.from_rows([[0, 1, 0], [0, 0, 1], ["x", "y", 1]])
    m2 = PolyMatrix.from_rows([[1, 0, "x"], [0, 0, 1], ["y", 0, 0]])
    return CharMorphism(algebra, [PolyMatrix.identity(3), m1, m2], char_poly(algebra))


def golden_morphism(name):
    return char_morphism(parse_roby_module((GOLDEN / name).read_text(encoding="utf-8")))


# golden modules without a characteristic morphism -> the error extraction raises
NO_MORPHISM = {
    "nonmonic_tslot_split3.roby": VerificationError,  # T^3 = 2I
    "untwisted_xi1.roby": InputError,  # no T-slot
    # targets refused as characteristic polynomials
    "chi_leading_2_split3.roby": InputError,
    "chi_leading_x_split3.roby": InputError,
    "chi_t4_split3.roby": InputError,
    "chi_t2_x1_squared_split3.roby": InputError,
}
GOLDEN_MORPHISMS = sorted(
    path.name for path in GOLDEN.glob("*.roby") if path.name not in NO_MORPHISM
)

# name -> factory of the morphism handed to verify_char_morphism
MORPHISMS = {
    "cubic, laws and identity failing": wrong_cubic_morphism,
    "perturbed_split.pipeline": (
        lambda: run_pipeline(demo_spec("perturbed_split.pipeline")).morphism
    ),
    "non-commuting E23/E12 pair": noncommuting_counterexample,
    **{name: partial(golden_morphism, name) for name in GOLDEN_MORPHISMS},
}

# name -> (the laws hold, Cayley-Hamilton holds)
EXPECTED = {
    "split 2, chi = t^2 - x1*t": (True, False),
    "split 3": (True, True),
    CUBIC: (True, True),
    f"{CUBIC} against chi of z^3 - x*z - 2*y": (True, False),
    "unit row wrong": (False, True),
    "cubic, laws and identity failing": (False, False),
    "perturbed_split.pipeline": (False, True),
    "non-commuting E23/E12 pair": (False, True),
    "cyclic_z3_x_y.roby": (True, True),
    "cyclic_z4_xy.roby": (True, True),
    "cyclic_z5_x2_y.roby": (True, True),
    "mf_x_y.roby": (True, True),
    "split3.roby": (True, True),
    "misgraded_split3.roby": (True, True),
    "tampered_cyclic_z3_x_y.roby": (False, False),
}


def full_row(chi, generic, values):
    """(ok, detail) of check_vanishes on chi evaluated at the full matrix."""
    report = Report(title="full")
    check_vanishes(report, "cayley_hamilton", chi.evaluate_matrix(generic, values))
    row = report.get("cayley_hamilton")
    return row.ok, row.detail


def test_every_fixture_has_an_expectation():
    assert set(ALGEBRAS) | set(MORPHISMS) == set(EXPECTED)


@pytest.mark.parametrize("name", list(NO_MORPHISM))
def test_the_other_golden_modules_have_no_morphism(name):
    with pytest.raises(NO_MORPHISM[name]):
        golden_morphism(name)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_cayley_hamilton_check_equals_the_full_evaluation(name):
    algebra, chi = ALGEBRAS[name]()
    report = cayley_hamilton_check(algebra, chi)
    chi = chi or char_poly(algebra)
    duals = [Poly.variable(g) for g in algebra.dual_names]
    row = report.get("cayley_hamilton")
    want = full_row(chi, algebra.regular_representation(), duals)
    assert (row.ok, row.detail) == want
    laws = algebra.action_laws(algebra.left_mult)
    assert (laws == (True, None), row.ok) == EXPECTED[name]
    assert cayley_hamilton_by_laws(algebra, laws, chi, duals) == (EXPECTED[name] == (True, True))


@pytest.mark.parametrize("name", list(MORPHISMS))
def test_verify_char_morphism_equals_the_full_evaluation(name):
    cm = MORPHISMS[name]()
    chi = cm.charpoly
    report = verify_char_morphism(cm)
    coeffs = fresh_names("a", chi.rank, cm.all_vars())
    values = [Poly.variable(a) for a in coeffs]
    row = report.get("cayley_hamilton")
    assert (row.ok, row.detail) == full_row(chi, cm.generic_matrix(coeffs), values)
    laws = cm.source.action_laws(cm.matrices)
    assert (laws == (True, None), row.ok) == EXPECTED[name]
    assert cayley_hamilton_by_laws(cm.source, laws, chi, values) == (EXPECTED[name] == (True, True))
    # the informational rows are the laws themselves, in their old order
    assert [c.name for c in report.checks] == ["cayley_hamilton", "unit", "multiplicativity"]
    assert (report.get("unit").ok, report.get("multiplicativity").ok) == (laws[0], laws[1] is None)


@pytest.fixture
def products(monkeypatch):
    """Shapes (left, right) of the products made outside ``action_laws`` and,
    in the CLI, outside ``char_morphism``'s extraction of the matrices."""
    made, depth = [], [0]
    mul = PolyMatrix.__mul__

    def spy(self, other):
        if isinstance(other, PolyMatrix) and not depth[0]:
            made.append((self.shape, other.shape))
        return mul(self, other)

    def excluded(function):
        def wrapped(*args, **kwargs):
            depth[0] += 1
            try:
                return function(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapped

    monkeypatch.setattr(PolyMatrix, "__mul__", spy)
    monkeypatch.setattr(FreeAlgebra, "action_laws", excluded(FreeAlgebra.action_laws))
    monkeypatch.setattr(cli, "char_morphism", excluded(cli.char_morphism))
    return made


def test_a_passing_cover_makes_only_column_products(products):
    algebra = monogenic_algebra(parse_poly("z^5 - x*z^3 - y^2*z - x^5 - y^5 - z2^5"), "z")
    chi = char_poly(algebra)
    del products[:]
    assert cayley_hamilton_check(algebra, chi).ok
    n = algebra.rank
    assert products == [((n, n), (n, 1))] * n


def test_a_passing_charmor_makes_no_full_size_product(products, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert cli.main(["charmor", "cyclic_z3_x_y.roby"]) == 0
    capsys.readouterr()
    assert products == [((3, 3), (3, 1))] * 3
