"""Built-in seed families: matrix roots, cover seeds, the perturbed split algebra."""

import pytest

from robyclif.errors import InputError
from robyclif.freealg import (
    cayley_hamilton_check,
    char_poly,
    monogenic_algebra,
    split_algebra,
)
from robyclif.matrix import PolyMatrix
from robyclif.poly import HomForm, Poly, parse_poly
from robyclif.roby import char_morphism, monomial_roby, twisted_tensor, verify_char_morphism, verify_roby
from robyclif.scalars import make_root
from robyclif.seeds import (
    companion_matrix,
    cyclic_cover_seed,
    mf_seed,
    perturbed_split_algebra,
)


def mat(rows):
    return PolyMatrix.from_rows(rows)


class TestCompanionMatrix:
    def test_cubic_cover_relation(self):
        z = companion_matrix("z^3 - x^3 - y^3", "z")
        assert z == mat([[0, 0, "x^3 + y^3"], [1, 0, 0], [0, 1, 0]])
        assert z.pow(3).scalar_identity_multiple() == parse_poly("x^3 + y^3")

    def test_general_monic_polynomial(self):
        z = companion_matrix("z^2 + x*z + y", "z")
        assert z == mat([[0, "-y"], [1, "-x"]])
        # p(Z) = 0 by construction
        assert z * z + z.scaled(parse_poly("x")) + PolyMatrix.identity(2).scaled(parse_poly("y")) == PolyMatrix.zeros(2, 2)

    def test_rejects_non_monic(self):
        with pytest.raises(InputError, match="monic"):
            companion_matrix("2*z^2 - x", "z")

    def test_rejects_missing_variable(self):
        with pytest.raises(InputError, match="involve"):
            companion_matrix("x^2 - y", "z")


class TestMatrixFactorizationSeed:
    def test_quadric_seed_matrices(self):
        seed = mf_seed("x", "y")
        assert seed.dim == 4
        assert seed.degree == 2
        assert seed.grading == (0, 0, 1, 1)
        assert seed.action("z") == mat(
            [[0, 0, 0, "x"], [0, 0, "y", 0], [0, "-x", 0, 0], ["-y", 0, 0, 0]]
        )
        assert seed.action("1") == mat(
            [[0, 0, -1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, -1, 0, 0]]
        )
        assert seed.tslot == mat(
            [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
        )

    def test_target_is_the_cover_char_poly(self):
        seed = mf_seed("x", "y")
        algebra = monogenic_algebra(parse_poly("z^2 - x*y"), "z")
        assert seed.target_poly == char_poly(algebra).poly
        assert seed.target_poly == parse_poly("t^2 - 2*t*G1 + G1^2 - G2^2*x*y")
        assert seed.source_algebra == algebra

    def test_target_matches_restriction_of_the_full_cover(self):
        # the seed is exactly the line-restricted quadric cover z^2 = x*y + z2^2
        chi = char_poly(monogenic_algebra(parse_poly("z^2 - x*y - z2^2"), "z"))
        assert mf_seed("x", "y").target_poly == chi.substitute_base({"z2": 0}).poly

    def test_passes_verification(self):
        assert verify_roby(mf_seed("x", "y")).ok

    def test_char_morphism_blocks(self):
        cm = char_morphism(mf_seed("x", "y"))
        assert cm.matrices[0] == PolyMatrix.identity(4)
        assert cm.matrices[1] == mat(
            [[0, "-x", 0, 0], ["-y", 0, 0, 0], [0, 0, 0, "x"], [0, 0, "y", 0]]
        )
        assert verify_char_morphism(cm).ok

    def test_general_factor_pair(self):
        seed = mf_seed("x + y", "x - y")
        assert verify_roby(seed).ok
        assert seed.target_poly == parse_poly("t^2 - 2*t*G1 + G1^2 - G2^2*x^2 + G2^2*y^2")

    def test_quadratic_single_factor(self):
        # the f = 1 pattern covers irreducible q
        seed = mf_seed(1, "x^2 + y^2")
        assert verify_roby(seed).ok
        assert seed.target_poly == parse_poly("t^2 - 2*t*G1 + G1^2 - G2^2*x^2 - G2^2*y^2")

    def test_rejects_zero_factor(self):
        with pytest.raises(InputError, match="nonzero"):
            mf_seed("x", 0)

    def test_rejects_cover_variable_in_factor(self):
        with pytest.raises(InputError, match="cover variable"):
            mf_seed("z", "y")


class TestCyclicCoverSeed:
    def cubic_seed(self):
        return cyclic_cover_seed(companion_matrix("z^3 - x^3 - y^3", "z"), 3)

    def test_nine_dimensional_cubic(self):
        seed = self.cubic_seed()
        assert seed.dim == 9
        assert seed.degree == 3
        assert seed.grading == (0, 0, 0, 1, 1, 1, 2, 2, 2)
        assert seed.has_tslot
        assert verify_roby(seed).ok

    def test_cubic_target_closed_form(self):
        # char poly of a + b*z + c*z^2 over z^3 = q, via the norm of t - gamma:
        # (t-a)^3 - b^3 q - c^3 q^2 - 3(t-a) b c q
        q = parse_poly("x^3 + y^3")
        t, g1, g2, g3 = (parse_poly(s) for s in ("t", "G1", "G2", "G3"))
        chi = (
            t**3
            - 3 * t**2 * g1
            + 3 * t * (g1**2 - g2 * g3 * q)
            - g1**3
            - g2**3 * q
            - g3**3 * q**2
            + 3 * g1 * g2 * g3 * q
        )
        assert self.cubic_seed().target_poly == chi

    def test_cubic_char_morphism_verifies(self):
        report = verify_char_morphism(char_morphism(self.cubic_seed()))
        assert report.ok
        assert report.get("cayley_hamilton").ok

    def test_tensor_root_gives_27_dimensions(self):
        x3 = monomial_roby(HomForm(parse_poly("x^3"), 3, ("x",)))
        y3 = monomial_roby(HomForm(parse_poly("y^3"), 3, ("y",)))
        t9 = twisted_tensor(x3, y3, make_root(3))
        z9 = t9.generic_matrix(t9.action_names)
        assert z9.pow(3).scalar_identity_multiple() == parse_poly("x^3 + y^3")
        seed = cyclic_cover_seed(z9, 3)
        assert seed.dim == 27
        assert seed.target_poly == self.cubic_seed().target_poly
        assert verify_roby(seed).ok

    def test_quartic_cover(self):
        seed = cyclic_cover_seed(companion_matrix("z^4 - x^4 - y^4", "z"), 4)
        assert seed.dim == 16
        assert verify_roby(seed).ok

    def test_rejects_non_root(self):
        with pytest.raises(InputError, match="does not satisfy"):
            cyclic_cover_seed(mat([["x", 0], [0, "y"]]), 2)

    def test_rejects_rectangular(self):
        with pytest.raises(InputError, match="square"):
            cyclic_cover_seed(PolyMatrix.zeros(2, 3), 2)

    def test_rejects_degree_below_two(self):
        with pytest.raises(InputError, match="degree"):
            cyclic_cover_seed(mat([[0, "x"], ["y", 0]]), 1)

    def test_rejects_cover_variable_collision(self):
        with pytest.raises(InputError, match="cover variable"):
            cyclic_cover_seed(mat([[0, "z"], ["z", 0]]), 2)

    def test_basis_names_name_the_powers(self):
        seed = cyclic_cover_seed(
            companion_matrix("z^3 - x^3 - y^3", "z"), 3, basis_names=("1", "z", "z2_")
        )
        assert seed.action_names == seed.source_algebra.basis_names == ("1", "z", "z2_")
        assert seed.target_poly == self.cubic_seed().target_poly
        assert mf_seed("x", "y", basis_names=("u", "v")).action_names == ("u", "v")
        with pytest.raises(InputError, match="need 2 basis names for z\\^0..z\\^1, got 3"):
            mf_seed("x", "y", basis_names=("1", "z", "z2"))

    def test_rank_cap_comes_before_the_power(self, monkeypatch):
        def no_power(self, n):
            raise AssertionError("Z^d was built before the rank cap")

        monkeypatch.setattr(PolyMatrix, "pow", no_power)
        with pytest.raises(InputError, match="algebra rank 40 exceeds the cap of 16"):
            cyclic_cover_seed(companion_matrix("z^4 - x*z^2 - y", "z"), 40)


class TestFormElementMatrix:
    def test_reproduces_the_form(self):
        m = monomial_roby(HomForm(parse_poly("x^2*y"), 3, ("x", "y")))
        # the form element: each action scaled by its own form variable
        z = m.generic_matrix(m.action_names)
        assert z.pow(3) == PolyMatrix.identity(3).scaled(parse_poly("x^2*y"))

    def test_tslot_modules_need_a_coefficient_for_t(self):
        # the action names alone leave T without a coefficient
        m = mf_seed("x", "y")
        with pytest.raises(InputError, match="one coefficient name per action"):
            m.generic_matrix(m.action_names)
        g = m.generic_matrix(m.target_vars + (m.tvar,))
        assert g.pow(2).scalar_identity_multiple() == m.target_poly


class TestPerturbedSplitAlgebra:
    def test_char_poly_closed_form(self):
        algebra = perturbed_split_algebra("z2*x")
        expected = parse_poly("t^2 - t*x1 - t*x2 + x1*x2 + x1^2*z2*x - 2*x1*x2*z2*x + x2^2*z2*x")
        assert char_poly(algebra).poly == expected

    def test_restriction_is_split(self):
        algebra = perturbed_split_algebra("z2*x").restrict({"z2": 0})
        assert char_poly(algebra).poly == char_poly(split_algebra(2)).poly

    def test_laws_and_unit(self):
        algebra = perturbed_split_algebra("z2*x")
        assert algebra.unit == [Poly.const(1), Poly.const(1)]
        assert algebra.degrees is None
        assert cayley_hamilton_check(algebra).ok

    def test_zero_perturbation_is_split(self):
        assert char_poly(perturbed_split_algebra(0)).poly == char_poly(split_algebra(2)).poly
