import random
from fractions import Fraction

import pytest

from robyclif.errors import InputError
from robyclif.poly import MAX_NESTING, HomForm, Poly, parse_poly, poly_arith, substitute
from robyclif.scalars import make_root


def V(name):
    return Poly.variable(name)


x, y, q, t = V("x"), V("y"), V("q"), V("t")


class TestArithmetic:
    def test_difference_of_squares(self):
        assert poly_arith(x + y, x - y, "mul") == x * x - y * y

    def test_multiplication_by_zero(self):
        assert x * Poly.zero() == Poly.zero()
        assert (x * 0).is_zero()

    def test_binomial_coefficient(self):
        cube = (x + y) ** 3
        by_x = cube.coefficient_map("x")
        assert by_x[2] == 3 * y

    def test_cancellation_leaves_no_stored_terms(self):
        p = 2 * x * y - q ** 3 + Fraction(1, 2)
        assert (p + (-p)).terms == {}
        assert p - p == Poly.zero()

    def test_scalar_division(self):
        assert (2 * x) / 2 == x
        assert (x * make_root(4)) / make_root(4) == x
        with pytest.raises(ZeroDivisionError):
            x / 0
        with pytest.raises(TypeError):
            x / y  # only scalar divisors make sense here

    def test_power_oracle_by_evaluation(self):
        p = (x + 1) ** 5
        assert p.evaluate({"x": 1}) == 32
        assert p.evaluate({"x": 2}) == 243

    def test_unknown_op_rejected(self):
        with pytest.raises(InputError):
            poly_arith(x, y, "div")


class TestSubstitution:
    def test_line_restriction_pattern(self):
        p = parse_poly("x^2 + z2*y")
        assert substitute(p, {"z2": Poly.zero()}) == x * x

    def test_self_substitution_cancels(self):
        p = parse_poly("t - x1")
        assert substitute(p, {"x1": t}) == Poly.zero()

    def test_generic_quadratic_at_dual_point(self):
        # chi of R[z]/(z^2-q) at the generic element a+bz, worked by hand
        chi = parse_poly("t^2 - 2*a*t + a^2 - b^2*q")
        assert substitute(chi, {"a": Poly.zero(), "b": Poly.const(1)}) == t * t - q

    def test_is_a_ring_morphism_on_random_inputs(self):
        rng = random.Random(11551)

        def rand_poly():
            p = Poly.zero()
            for _ in range(rng.randint(1, 5)):
                c = Fraction(rng.randint(-6, 6))
                p = p + c * x ** rng.randint(0, 3) * y ** rng.randint(0, 3)
            return p

        binding = {"x": y * y - 1, "y": q + 2}
        for _ in range(20):
            a, b = rand_poly(), rand_poly()
            assert (a * b).substitute(binding) == a.substitute(binding) * b.substitute(binding)
            assert (a + b).substitute(binding) == a.substitute(binding) + b.substitute(binding)

    def test_simultaneous_not_sequential(self):
        p = x + y
        swapped = p.substitute({"x": y, "y": x})
        assert swapped == x + y

    def test_evaluate_to_scalar(self):
        p = parse_poly("3/2*x^2*y - q")
        assert p.evaluate({"x": 2, "y": 3, "q": Fraction(1, 2)}) == Fraction(35, 2)


class TestStructure:
    def test_degrees(self):
        p = parse_poly("x^2*y + q")
        assert p.total_degree() == 3
        assert p.degree_in("x") == 2
        assert p.degree_in("missing") == 0
        assert Poly.zero().total_degree() is None

    def test_homogeneous_degree(self):
        assert (x * x + x * y).homogeneous_degree() == 2
        assert (x * x + y).homogeneous_degree() is None
        assert Poly.zero().homogeneous_degree() == 0
        mixed = x * x * q + y * y
        assert mixed.homogeneous_degree(("x", "y")) == 2

    def test_coefficient_map(self):
        p = x * x * y + 2 * x * x + y ** 3
        m = p.coefficient_map("x")
        assert set(m) == {0, 2}
        assert m[2] == y + 2
        assert m[0] == y ** 3

    def test_equality_ignores_context_padding(self):
        padded = (x + y) - y
        assert padded == x
        assert padded.pruned().vars == ("x",)

    def test_constant_queries(self):
        assert Poly.const(Fraction(5, 3)).constant_value() == Fraction(5, 3)
        assert Poly.zero().constant_value() == 0
        with pytest.raises(InputError):
            x.constant_value()

    def test_polys_are_unhashable(self):
        with pytest.raises(TypeError):
            {x: 1}


class TestTextFormat:
    def test_parse_display_round_trip(self):
        for text in (
            "3/2*x^2*y - z2",
            "x^2 - 2*x*y + y^2 + 1",
            "-(x - y)*(x + y)",
            "zeta6*x + 7/3",
            "q^4 - 1/2",
        ):
            p = parse_poly(text)
            assert parse_poly(str(p)) == p

    def test_display_order_is_deterministic(self):
        assert str(y + x + x * x) == "x^2 + x + y"
        assert str(Poly.zero()) == "0"
        assert str(x - y) == "x - y"

    def test_zeta_atoms(self):
        z3 = make_root(3)
        p = parse_poly("zeta3*x + zeta3^2*x")
        assert p == -x  # 1 + zeta3 + zeta3^2 = 0
        assert parse_poly("zeta4^2") == Poly.const(-1)
        printed = str(Poly.const(1 + z3) * x)
        assert "zeta3" in printed
        assert parse_poly(printed) == (1 + z3) * x

    def test_zeta_names_are_reserved(self):
        with pytest.raises(InputError):
            Poly.variable("zeta5")
        assert parse_poly("zetaish + zeta_5") == V("zetaish") + V("zeta_5")

    def test_parse_errors(self):
        for bad in ("", "x +", "x^-1", "2x", "x^y", "(x", "x & y"):
            with pytest.raises(InputError):
                parse_poly(bad)

    def test_implicit_products_are_rejected(self):
        with pytest.raises(InputError):
            parse_poly("3x")

    @pytest.mark.parametrize(
        "text", ["(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x"], ids=["parens", "signs"]
    )
    def test_deep_nesting_is_input_error(self, text):
        with pytest.raises(InputError, match="nested too deeply"):
            parse_poly(text)

    def test_nesting_up_to_the_cap_parses(self):
        depth = MAX_NESTING // 2
        assert parse_poly("(" * depth + "-x" + ")" * depth) == -x
        assert parse_poly("-" * MAX_NESTING + "x") == x


class TestHomForm:
    def test_accepts_homogeneous_forms(self):
        f = HomForm(parse_poly("x^2 + q*x*y"), 2, ("x", "y"))
        assert f.degree == 2

    def test_rejects_inhomogeneous(self):
        with pytest.raises(InputError):
            HomForm(parse_poly("x^2 + y"), 2, ("x", "y"))
        with pytest.raises(InputError):
            HomForm(parse_poly("x^3"), 2, ("x", "y"))

    def test_single_term_split(self):
        f = HomForm(parse_poly("3/2*q*x^2*y"), 3, ("x", "y"))
        coeff, args = f.single_term()
        assert coeff == Fraction(3, 2) * q
        assert args == {"x": 2, "y": 1}
        with pytest.raises(InputError):
            HomForm(parse_poly("x^2 + y^2"), 2, ("x", "y")).single_term()
