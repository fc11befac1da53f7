import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from robyclif.errors import InputError
from robyclif import kernel
from robyclif import poly as poly_module
from robyclif.poly import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_POWER_BITS,
    MAX_POWER_TERMS,
    HomForm,
    Poly,
    _align_terms,
    _power_term_bound,
    as_poly,
    parse_poly,
    poly_arith,
    substitute,
)
from robyclif.scalars import make_root


def V(name):
    return Poly.variable(name)


x, y, q, t = V("x"), V("y"), V("q"), V("t")


@pytest.fixture
def counted_mul_terms(monkeypatch):
    """A Counter of ``kernel.mul_terms`` calls."""
    calls = Counter()
    real = kernel.mul_terms

    def counted(a, b):
        calls["mul_terms"] += 1
        return real(a, b)

    monkeypatch.setattr(kernel, "mul_terms", counted)
    return calls


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

    def test_power_chain_does_one_product_per_step(self, counted_mul_terms):
        def old_pow(p, n):
            # the loop Poly.__pow__ once ran: from 1, squaring past the last bit
            result, base = Poly.const(1), p
            while n:
                if n & 1:
                    result = result * base
                base = base * base
                n >>= 1
            return result

        bases = [x - Fraction(1, 2) * y, 3 * x * y, 2 * x + make_root(3), Poly.zero(), Poly.const(2)]
        for p in bases:
            for n in range(1, 34):
                want = old_pow(p, n)
                counted_mul_terms.clear()
                got = p ** n
                steps = (n.bit_length() - 1) + (bin(n).count("1") - 1)
                assert counted_mul_terms["mul_terms"] == steps, (p, n)
                assert got.vars == want.vars, (p, n)
                assert list(got.terms.items()) == list(want.terms.items()), (p, n)
            assert p ** 0 == 1


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

    def test_builds_only_the_powers_it_uses(self, counted_mul_terms):
        p = parse_poly("x^1000")
        counted_mul_terms.clear()
        got = p.substitute({"x": "y + 1"})
        assert counted_mul_terms["mul_terms"] <= 20
        assert got == (y + 1) ** 1000
        mixed = parse_poly("x^7*y + 3*x^6 - x^2*y^5 + x^7")
        assert mixed.substitute({"x": "y - 2", "y": "x + y"}) == (
            (y - 2) ** 7 * (x + y) + 3 * (y - 2) ** 6 - (y - 2) ** 2 * (x + y) ** 5 + (y - 2) ** 7
        )

    def test_accumulation_equals_the_old_loop_key_for_key(self, monkeypatch):
        # the loop Poly.substitute ran before it accumulated in place: one
        # add_terms copy of the running result per term
        def old_substitute(p, bindings):
            vals = {v: as_poly(b) for v, b in bindings.items() if v in p.vars}
            keep = tuple(v for v in p.vars if v not in vals)
            new_vars = tuple(sorted(set(keep).union(*(b.vars for b in vals.values()))))
            pos = {v: i for i, v in enumerate(new_vars)}
            keep_idx = [(i, pos[v]) for i, v in enumerate(p.vars) if v not in vals]
            bound = [(i, v) for i, v in enumerate(p.vars) if v in vals]
            squares = {v: [b.aligned(new_vars)] for v, b in vals.items()}
            powers = {}

            def var_power(v, n):
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

            out = {}
            for exp, c in p.terms.items():
                base_exp = [0] * len(new_vars)
                for i, j in keep_idx:
                    base_exp[j] = exp[i]
                acc = {tuple(base_exp): c}
                for i, v in bound:
                    if exp[i]:
                        acc = kernel.mul_terms(acc, var_power(v, exp[i]))
                out = kernel.add_terms(out, acc)
            return Poly(new_vars, out, _canonical=True)

        rng = random.Random(11661)
        names = ("x", "y", "z", "w")
        z3 = make_root(3)

        def rand_poly(k):
            terms = {
                tuple(rng.randint(0, 4) for _ in names): rng.choice(
                    [1, -2, Fraction(3, 4), 5, z3, 1 - z3]
                )
                for _ in range(k)
            }
            return Poly(names, terms)

        copied = Counter()
        real_add_terms = kernel.add_terms

        def counted_add_terms(a, b):
            copied["entries"] += len(a)
            return real_add_terms(a, b)

        for trial in range(30):
            p = rand_poly(rng.randint(0, 60))
            bindings = {
                v: rand_poly(rng.randint(0, 3)).substitute({u: 1 for u in names if u != v})
                for v in rng.sample(names, rng.randint(1, 3))
            }
            bindings[rng.choice(names)] = rng.choice(["y + z2", "0", "x - 1", "zeta4*q"])
            want = old_substitute(p, bindings)
            monkeypatch.setattr(kernel, "add_terms", counted_add_terms)
            copied.clear()
            got = p.substitute(bindings)
            monkeypatch.setattr(kernel, "add_terms", real_add_terms)
            assert got.vars == want.vars, trial
            assert list(got.terms.items()) == list(want.terms.items()), trial
            assert copied["entries"] == 0, trial  # no running-result copies

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

    def test_a_repeated_variable_is_input_error(self):
        # exponents of a repeated name once overwrote each other: x^2 for x^1 * x^2
        for terms in ({(1, 2): 1}, {(1, 2): 1, (2, 1): 1}, {}):
            with pytest.raises(InputError, match="variable 'x' appears twice"):
                Poly(("x", "x"), terms)
        with pytest.raises(InputError, match="variable 'y' appears twice"):
            Poly(("y", "x", "y"), {(1, 1, 1): 1})

    def test_polys_are_unhashable(self):
        with pytest.raises(TypeError):
            {x: 1}

    def test_alignment_equals_the_old_loop_key_for_key(self):
        def old_align(terms, old_vars, new_vars):
            # the per-key loop _align_terms once ran
            if old_vars == new_vars or not terms:
                return terms
            pos = {v: i for i, v in enumerate(new_vars)}
            idx = [pos[v] for v in old_vars]
            out = {}
            for exp, c in terms.items():
                new_exp = [0] * len(new_vars)
                for i, e in enumerate(exp):
                    if e:
                        new_exp[idx[i]] = e
                out[tuple(new_exp)] = c
            return out

        rng = random.Random(48)
        names = ("a", "q", "x", "y", "z2")
        for trial in range(300):
            new_vars = tuple(sorted(rng.sample(names, rng.randrange(0, 6))))
            old_vars = tuple(v for v in new_vars if rng.random() < 0.6)
            terms = {
                tuple(rng.randrange(0, 300) for _ in old_vars): rng.choice((1, -2, Fraction(1, 3)))
                for _ in range(rng.randrange(0, 6))
            }
            got = _align_terms(terms, old_vars, new_vars)
            want = old_align(terms, old_vars, new_vars)
            assert list(got.items()) == list(want.items()), (trial, old_vars, new_vars)


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

    def test_rational_roots_are_stored_as_rationals(self):
        # zeta2 = -1 is stored as the int -1, so an order-2 factor no longer
        # lifts a product to the lcm order: the value -zeta3 prints at order 3
        # where the order-6 residue printed as (1 - zeta6)*x.
        p = parse_poly("zeta2*zeta3*x")
        assert str(p) == "(-zeta3)*x"
        assert p == parse_poly("(1 - zeta6)*x")
        for text in ("(-zeta3)*x", "(1 - zeta6)*x"):
            assert parse_poly(str(parse_poly(text))) == p
        assert list(parse_poly("zeta2*x + zeta1").terms.items()) == [((1,), -1), ((0,), 1)]
        assert all(type(c) is int for c in parse_poly("zeta2*x + zeta1").terms.values())

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

    @pytest.mark.parametrize("text", ["(x+y+z+w+u)^20", "(x+y+z+w+u)^10", "2*(x - y + 1)^50"])
    def test_power_above_the_term_cap_is_refused_before_expanding(self, text, monkeypatch):
        def no_expansion(self, n):
            raise AssertionError("the power was expanded")

        monkeypatch.setattr(Poly, "__pow__", no_expansion)
        with pytest.raises(InputError, match=f"above the cap {MAX_POWER_TERMS}"):
            parse_poly(text)

    def test_power_at_the_term_cap_parses(self, monkeypatch):
        monkeypatch.setattr(poly_module, "MAX_POWER_TERMS", 10)
        assert len(parse_poly("(x+y)^9").terms) == 10
        with pytest.raises(InputError, match="may expand to 11 terms, above the cap 10"):
            parse_poly("(x+y)^10")
        # one term stays one term, whatever the exponent
        assert parse_poly("(3*x*y^2)^400") == Poly.const(3**400) * x**400 * y**800
        assert parse_poly("(x - x)^5") == Poly.zero()
        assert parse_poly("(x - x)^0") == Poly.const(1)

    @pytest.mark.parametrize(
        "text, refused, message",
        [
            ("x^99999999999999*y", 99999999999999, "power ^99999999999999 is above the exponent cap"),
            ("(3*x)^30000000", 30000000, "power ^30000000 is above the exponent cap"),
            ("x^1001", 1001, "power ^1001 is above the exponent cap"),
            ("2^1001", 1001, "power ^1001 is above the exponent cap"),
            # N is refused before the term bound is computed or printed
            ("(x^2)^" + "9" * 4300, int("9" * 4300), "is above the exponent cap"),
            ("(x+y+1)^" + "9" * 2200, int("9" * 2200), "is above the exponent cap"),
            ("(x^2)^501", 501, "gives exponent 1002, above the cap"),
            ("(x^999*y)^2", 2, "gives exponent 1998, above the cap"),
            ("(x^500 + y)^3", 3, "gives exponent 1500, above the cap"),
        ],
        ids=["x^14 digits", "one-term base", "x^1001", "2^1001", "4300 digits",
             "2200 digits", "(x^2)^501", "(x^999*y)^2", "(x^500 + y)^3"],
    )
    def test_exponent_above_the_cap_is_refused_before_expanding(
        self, text, refused, message, monkeypatch
    ):
        real_pow = Poly.__pow__

        def inner_powers_only(self, n):
            assert n != refused, "the refused power was expanded"
            return real_pow(self, n)

        real_bound = poly_module._power_term_bound

        def inner_bounds_only(base, n):
            assert n != refused, "a term bound was computed for the refused power"
            return real_bound(base, n)

        monkeypatch.setattr(Poly, "__pow__", inner_powers_only)
        monkeypatch.setattr(poly_module, "_power_term_bound", inner_bounds_only)
        with pytest.raises(InputError, match=f"{re.escape(message)} {MAX_EXPONENT}$"):
            parse_poly(text)

    def test_exponents_at_the_cap_parse(self):
        assert MAX_EXPONENT == 1000
        assert parse_poly("x^1000").terms == {(1000,): 1}
        assert parse_poly("(x^2*y)^500").terms == {(1000, 500): 1}
        assert parse_poly("(x^10 - y)^100") == (x**10 - y) ** 100
        assert parse_poly("2^1000") == Poly.const(2**1000)
        assert parse_poly("(x^999)^1").terms == {(999,): 1}
        # products are not powers: their exponents add past the cap
        assert parse_poly("x^1000*x^1000").terms == {(2000,): 1}

    def test_coefficient_growth_is_refused_before_expanding(self, monkeypatch):
        assert MAX_POWER_BITS == 100_000
        big = 2**200 - 1  # 200 bits: ^500 is exactly at the cap, ^501 above it
        assert parse_poly(f"({big}*x)^500") == Poly.const(big**500) * x**500
        monkeypatch.setattr(Poly, "__pow__", lambda self, n: pytest.fail("the power was expanded"))
        with pytest.raises(InputError, match="may give a 100200-bit coefficient, above the cap 100000"):
            parse_poly(f"({big}*x)^501")
        with pytest.raises(InputError, match="100200-bit"):
            parse_poly(f"(1/{big}*x)^501")  # a denominator counts too
        with pytest.raises(InputError, match="100200-bit"):
            parse_poly(f"({big} + x)^501")  # so does the largest coefficient of any base
        with pytest.raises(InputError, match="100200-bit"):
            parse_poly(f"({big}*zeta3)^501")

    def test_numbers_too_long_to_convert_are_input_errors(self):
        for text in ("x^" + "9" * 5000, "9" * 5000 + "*x", "1/" + "7" * 5000):
            with pytest.raises(InputError, match="characters is too long"):
                parse_poly(text)

    def test_poly_constructor_rejects_bad_exponents(self):
        for exp in ((-1, 0), (0, Fraction(1, 2)), (1.0, 0)):
            with pytest.raises(InputError, match="nonnegative integers"):
                Poly(("x", "y"), {exp: 1})

    def test_power_term_bound_is_an_upper_bound(self):
        rng = random.Random(5)
        for _ in range(150):
            names = rng.choice((("x", "y"), ("w", "x", "y", "z")))
            terms = {
                tuple(rng.randint(0, 2) for _ in names): rng.choice([1, -2, Fraction(1, 3), 5])
                for _ in range(rng.randint(0, 9))
            }
            base = Poly(names, terms)
            n = rng.randint(0, 4 if len(names) == 2 else 3)
            assert len((base ** n).terms) <= _power_term_bound(base, n), (base, n)
        # a linear form reaches the count of products, C(t + n - 1, n) ...
        assert _power_term_bound(parse_poly("x+y+z+w+u"), 20) == 10626
        assert len((parse_poly("x+y+z") ** 6).terms) == _power_term_bound(parse_poly("x+y+z"), 6) == 28
        # ... and a dense quadric the count of monomials, C(k + n*deg, k)
        dense = parse_poly("x^2 + x*y + y^2 + x + y + 1")
        assert len((dense ** 3).terms) == _power_term_bound(dense, 3) == 28


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
