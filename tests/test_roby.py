"""Roby module constructions, twisted tensors, and the verifiers."""

import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from robyclif.errors import InputError, VerificationError
from robyclif.freealg import (
    FreeAlgebra,
    char_poly,
    monogenic_algebra,
    split_algebra,
)
from robyclif.matrix import PolyMatrix
from robyclif.pipeline import deviation_monomials
from robyclif.poly import MAX_EXPONENT, HomForm, Poly, parse_poly
from robyclif.report import Report
from robyclif.roby import (
    _graded_check,
    CharMorphism,
    Filtration,
    GradedRobyModule,
    MonomialSpec,
    char_morphism,
    fresh_names,
    in_ideal,
    monomial_charpoly_roby,
    monomial_roby,
    reindex_for_line,
    split_roby,
    twisted_tensor,
    verify_char_morphism,
    verify_filtered_pseudo,
    verify_roby,
    zero_roby,
)
from robyclif.scalars import make_root
from robyclif.seeds import companion_matrix, cyclic_cover_seed, mf_seed
from robyclif.specfile import parse_roby_module


def form(text, degree, arg_vars):
    return HomForm(parse_poly(text), degree, arg_vars)


class TestMonomialForm:
    def test_product_of_two_variables(self):
        m = monomial_roby(form("y1*y2", 2, ("y1", "y2")))
        assert m.action("y1") == PolyMatrix.from_rows([[0, 0], [1, 0]])
        assert m.action("y2") == PolyMatrix.from_rows([[0, 1], [0, 0]])
        assert m.grading == (1, 0)
        assert verify_roby(m).ok

    def test_coefficient_rides_on_first_factor(self):
        m = monomial_roby(form("q*x^2*y", 3, ("x", "y")))
        ax = m.action("x")
        assert ax.entry(1, 0) == parse_poly("q")
        assert ax.entry(2, 1) == Poly.const(1)
        assert m.action("y").entry(0, 2) == Poly.const(1)
        assert verify_roby(m).ok

    def test_cube_telescopes_to_the_monomial(self):
        m = monomial_roby(form("q*x^2*y", 3, ("x", "y")))
        g = m.generic_matrix(["s1", "s2"])
        cubed = g.pow(3)
        assert cubed.scalar_identity_multiple() == parse_poly("q*s1^2*s2")

    def test_explicit_factor_distribution(self):
        f = form("q*x^2*y", 3, ("x", "y"))
        m = monomial_roby(f, factors=[(1, "x"), ("q", "y"), (1, "x")])
        assert m.action("y").entry(2, 1) == parse_poly("q")
        assert verify_roby(m).ok

    def test_factor_product_must_match(self):
        f = form("x^2*y", 3, ("x", "y"))
        with pytest.raises(InputError, match="reproduce"):
            monomial_roby(f, factors=[(2, "x"), (1, "x"), (1, "y")])
        with pytest.raises(InputError, match="exactly 3"):
            monomial_roby(f, factors=[(1, "x"), ("x*y", "x")])
        with pytest.raises(InputError, match="argument"):
            monomial_roby(f, factors=[(1, "x"), (1, "x"), ("x*y", "q")])

    def test_absent_argument_variable_gets_zero_action(self):
        m = monomial_roby(form("x^2", 2, ("x", "y")))
        assert m.action("y").is_zero()
        assert verify_roby(m).ok

    def test_multi_term_form_is_rejected(self):
        with pytest.raises(InputError, match="one term"):
            monomial_roby(form("x^2 + y^2", 2, ("x", "y")))


class TestMonomialCharPoly:
    def quadric(self):
        # z^2 - (x*y + z2^2), graded with deg(z) = 1
        return monogenic_algebra(parse_poly("z^2 - x*y - z2^2"), "z")

    def test_quadric_line_monomial(self):
        alg = self.quadric()
        spec = MonomialSpec(2, 0, ("-z2", "z2"), (2, 2))
        m = monomial_charpoly_roby(spec, alg)
        assert m.action("z") == PolyMatrix.from_rows([["0", "z2"], ["-z2", "0"]])
        assert m.action("1").is_zero()
        assert m.tslot.is_zero()
        assert m.target_poly == parse_poly("-z2^2*G2^2")
        assert verify_roby(m).ok

    def test_t_slot_monomial(self):
        # 2 * t * Gamma over the split presentation: i = 1, d = 2
        alg = split_algebra(2)
        spec = MonomialSpec(2, 1, (2,), (1,))
        m = monomial_charpoly_roby(spec, alg)
        assert m.tslot == PolyMatrix.from_rows([[0, 0], [1, 0]])
        assert m.action("e1") == PolyMatrix.from_rows([[0, 2], [0, 0]])
        assert m.target_poly == parse_poly("2*t*x1")
        assert verify_roby(m).ok

    def test_graded_algebra_pins_factor_degrees(self):
        alg = self.quadric()
        # the second basis element has degree 1, so a constant factor is out
        with pytest.raises(InputError, match="homogeneous of degree 1"):
            monomial_charpoly_roby(MonomialSpec(2, 0, (1, "z2^2"), (2, 2)), alg)

    def test_ungraded_algebra_allows_mixed_factors(self):
        alg = monogenic_algebra(parse_poly("z^2 - q"), "z").restrict({"q": parse_poly("q")})
        assert alg.degrees is None
        m = monomial_charpoly_roby(MonomialSpec(2, 0, (1, "-q"), (2, 2)), alg)
        assert verify_roby(m).ok

    def test_zero_coefficients_give_the_zero_module(self):
        alg = self.quadric()
        m = monomial_charpoly_roby(MonomialSpec(2, 0, (0, 0), (2, 2)), alg)
        assert all(a.is_zero() for a in m.actions)
        assert not m.target_poly
        assert verify_roby(m).ok

    def test_rank_mismatch(self):
        with pytest.raises(InputError, match="rank"):
            monomial_charpoly_roby(MonomialSpec(3, 0, (1, 1, 1), (1, 1, 1)), self.quadric())

    def test_spec_validation(self):
        with pytest.raises(InputError, match="t-exponent"):
            MonomialSpec(2, 2, (), ())
        with pytest.raises(InputError, match="exactly 2"):
            MonomialSpec(2, 0, ("q",), (1,))
        with pytest.raises(InputError, match="out of range"):
            MonomialSpec(2, 0, (1, 1), (1, 3))
        with pytest.raises(InputError, match="rank >= 2"):
            MonomialSpec(1, 0, (1,), (1,))

    def test_spec_value(self):
        spec = MonomialSpec(3, 1, ("p", "-q"), (1, 3))
        assert spec.value(("G1", "G2", "G3"), "t") == parse_poly("-p*q*t*G1*G3")


class TestSplitModule:
    def test_rank_two_matrices(self):
        m = split_roby(2)
        assert m.tslot == PolyMatrix.from_rows([[0, 1], [1, 0]])
        assert m.action("e1") == PolyMatrix.from_rows([[0, -1], [0, 0]])
        assert m.action("e2") == PolyMatrix.from_rows([[0, 0], [-1, 0]])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_power_identity(self, d):
        report = verify_roby(split_roby(d))
        assert report.ok
        assert report.get("graded").ok
        assert report.get("power_identity").ok

    def test_generic_element_telescopes(self):
        m = split_roby(3)
        g = m.generic_matrix(["s1", "s2", "s3", "r"])
        got = g.pow(3).scalar_identity_multiple()
        assert got == parse_poly("(r - s1)*(r - s2)*(r - s3)")

    def test_small_rank_rejected(self):
        with pytest.raises(InputError, match=">= 2"):
            split_roby(1)


class TestDegreeCap:
    def module(self, degree):
        return GradedRobyModule(degree, (0,), ("a",), [[["x + y"]]], parse_poly("a"))

    def test_the_cap_is_admitted(self):
        assert self.module(MAX_EXPONENT).degree == MAX_EXPONENT

    def test_past_the_cap_is_refused(self):
        with pytest.raises(InputError, match="Roby degree 1001 exceeds the cap of 1000"):
            self.module(MAX_EXPONENT + 1)


class TestZeroModule:
    def test_all_actions_vanish(self):
        z = zero_roby(3, ("x", "y"))
        assert z.dim == 1
        assert all(a.is_zero() for a in z.actions)
        assert verify_roby(z).ok

    def test_tensor_with_zero_is_a_copy(self):
        m = monomial_roby(form("x^2", 2, ("x",)))
        z = zero_roby(2, ("x",))
        for t in (twisted_tensor(m, z, -1), twisted_tensor(z, m, -1)):
            assert t.dim == m.dim
            assert t.actions == m.actions
            assert t.target_poly == m.target_poly
            assert t.grading == m.grading


class TestTwistedTensor:
    def test_sum_of_two_squares(self):
        m1 = monomial_roby(form("x^2", 2, ("x",)))
        m2 = monomial_roby(form("y^2", 2, ("y",)))
        t = twisted_tensor(m1, m2, -1)
        assert t.action_names == ("x", "y")
        assert t.dim == 4
        assert t.grading == (0, 1, 1, 0)
        # mixed terms cancel through the sign twist
        flip = PolyMatrix.from_rows([[0, 1], [1, 0]])
        sign = PolyMatrix.diagonal([-1, 1])
        assert t.action("x") == flip.kron(PolyMatrix.identity(2))
        assert t.action("y") == sign.kron(flip)
        assert verify_roby(t).ok

    def test_sum_of_two_cubes(self):
        m1 = monomial_roby(form("x^3", 3, ("x",)))
        m2 = monomial_roby(form("y^3", 3, ("y",)))
        t = twisted_tensor(m1, m2, make_root(3))
        assert t.dim == 9
        assert t.target_poly == parse_poly("x^3 + y^3")
        assert verify_roby(t).ok

    def test_any_primitive_root_works(self):
        m1 = monomial_roby(form("x^3", 3, ("x",)))
        m2 = monomial_roby(form("y^3", 3, ("y",)))
        assert verify_roby(twisted_tensor(m1, m2, make_root(3) ** 2)).ok

    def test_nonprimitive_twist_rejected_eagerly(self):
        m1 = monomial_roby(form("x^2", 2, ("x",)))
        m2 = monomial_roby(form("y^2", 2, ("y",)))
        with pytest.raises(InputError, match="primitive"):
            twisted_tensor(m1, m2, 1)
        with pytest.raises(InputError, match="primitive"):
            twisted_tensor(m1, m2, make_root(4))

    def test_nonprimitive_twist_breaks_the_identity(self):
        # the documented counterexample: untwisted tensor is not a Roby module
        m1 = monomial_roby(form("x^2", 2, ("x",)))
        m2 = monomial_roby(form("y^2", 2, ("y",)))
        t = twisted_tensor(m1, m2, 1, require_primitive=False)
        report = verify_roby(t)
        assert not report.ok
        assert not report.get("power_identity").ok
        assert "entry" in report.get("power_identity").detail

    def test_charpoly_flavor_targets_add(self):
        alg = monogenic_algebra(parse_poly("z^2 - x*y - z2^2"), "z")
        spec = MonomialSpec(2, 0, ("-z2", "z2"), (2, 2))
        m = monomial_charpoly_roby(spec, alg)
        t = twisted_tensor(m, m, -1)
        assert t.dim == 4
        assert t.target_poly == parse_poly("-2*z2^2*G2^2")
        assert t.source_algebra == alg
        assert verify_roby(t).ok

    def test_charpoly_flavor_cubic_deviation(self):
        # once the seed validates, every assembly step must verify
        alg = monogenic_algebra(parse_poly("z^3 - x^3 - y^3 - z2^3"), "z")
        chi = char_poly(alg)
        chi0 = chi.substitute_base({"z2": 0})
        specs = deviation_monomials(chi, chi0, alg, ("z2",))
        assert len(specs) == 6
        a = monomial_charpoly_roby(specs[0], alg)
        b = monomial_charpoly_roby(specs[1], alg)
        t = twisted_tensor(a, b, make_root(3))
        assert t.dim == 9
        assert t.target_poly == a.target_poly + b.target_poly
        assert t.source_algebra == alg
        assert verify_roby(t).ok

    def test_degree_mismatch(self):
        m1 = monomial_roby(form("x^2", 2, ("x",)))
        m2 = monomial_roby(form("y^3", 3, ("y",)))
        with pytest.raises(InputError, match="degrees 2 and 3"):
            twisted_tensor(m1, m2, -1)

    def test_flavor_mismatch(self):
        m1 = split_roby(2)
        m2 = monomial_roby(form("x^2", 2, ("x",)))
        with pytest.raises(InputError, match="form module"):
            twisted_tensor(m1, m2, -1)

    def test_form_module_with_charpoly_module_refused(self):
        m1 = monomial_roby(form("x^2", 2, ("x",)))
        with pytest.raises(InputError, match="form module with a char-poly module"):
            twisted_tensor(m1, split_roby(2), -1)

    def test_charpoly_modules_with_other_names_refused(self):
        s = split_roby(2)
        renamed = GradedRobyModule(
            2, s.grading, ("f1", "f2"), s.actions, s.target_poly,
            target_vars=s.target_vars, tslot=s.tslot, tvar=s.tvar,
        )
        other_duals = split_roby(2, dual_names=("h1", "h2"))
        for m in (renamed, other_duals):
            with pytest.raises(InputError, match="share basis and dual names"):
                twisted_tensor(s, m, -1)
            with pytest.raises(InputError, match="share basis and dual names"):
                twisted_tensor(m, s, -1)

    def test_form_names_are_the_union_in_order_with_zero_fill(self):
        m1 = monomial_roby(form("x*y", 2, ("x", "y")))
        m2 = monomial_roby(form("y*z", 2, ("y", "z")))
        t = twisted_tensor(m1, m2, -1)
        assert t.action_names == t.target_vars == ("x", "y", "z")
        assert [n for n, _, _ in t.named_actions] == ["x", "y", "z"]
        eye = PolyMatrix.identity(2)
        sign = PolyMatrix.diagonal([-1, 1])  # xi^g over m1's grading (1, 0)
        assert t.action("x") == m1.action("x").kron(eye)
        assert t.action("y") == m1.action("y").kron(eye) + sign.kron(m2.action("y"))
        assert t.action("z") == sign.kron(m2.action("z"))
        assert t.target_poly == parse_poly("x*y + y*z")
        assert verify_roby(t).ok

    def test_a_basis_action_named_T_pairs_by_position(self):
        # z^2 - x*y - z2^2 in the variable T has the basis (1, T): one basis
        # action shares its name with the T-slot, and neither may be lost
        seed = mf_seed("x", "y", var="T")
        assert seed.action_names == seed.source_algebra.basis_names == ("1", "T")
        bare = GradedRobyModule(
            2, seed.grading, seed.action_names, seed.actions, seed.target_poly,
            target_vars=seed.target_vars, tslot=seed.tslot, tvar=seed.tvar,
        )
        eye = PolyMatrix.identity(seed.dim)
        dxi = PolyMatrix.diagonal([(-1) ** g for g in seed.grading])
        for m in (seed, bare):
            t = twisted_tensor(m, m, -1)
            assert [n for n, _, _ in t.named_actions] == ["1", "T", "T"]
            assert t.source_algebra is m.source_algebra
            assert t.action("T") == seed.action("T").kron(eye) + dxi.kron(seed.action("T"))
            assert t.tslot == seed.tslot.kron(eye) + dxi.kron(seed.tslot)
            assert t.tslot != t.action("T")
            assert verify_roby(t).ok

    def test_form_actions_keep_their_own_target_variables(self):
        m1 = monomial_roby(form("x^2", 2, ("x",)))
        y2 = monomial_roby(form("y^2", 2, ("y",)))
        m2 = GradedRobyModule(2, y2.grading, ("y",), y2.actions, parse_poly("b^2"),
                              target_vars=("b",))
        t = twisted_tensor(m1, m2, -1)
        assert t.action_names == ("x", "y")
        assert t.target_vars == ("x", "b")
        assert verify_roby(t).ok

    def test_form_shared_action_with_other_target_variables_refused(self):
        m1 = monomial_roby(form("x^2", 2, ("x",)))
        m2 = GradedRobyModule(2, m1.grading, ("x",), m1.actions, parse_poly("a^2"),
                              target_vars=("a",))
        with pytest.raises(InputError, match="action x has target variables 'x' and 'a'"):
            twisted_tensor(m1, m2, -1)

    def test_split_tensor_split(self):
        s = split_roby(2)
        t = twisted_tensor(s, s, -1)
        assert t.dim == 4
        assert t.target_poly == parse_poly("2*(t - x1)*(t - x2)")
        assert verify_roby(t).ok

    def test_sweep_of_random_monomial_pairs(self):
        rng = random.Random(90211)
        for e in (2, 3, 4):
            xi = make_root(e) if e > 2 else -1
            for _ in range(3):
                texts = []
                for _ in range(2):
                    exps = [0, 0]
                    for _ in range(e):
                        exps[rng.randrange(2)] += 1
                    c = rng.choice(["", "2*", "-1/3*", "q*"])
                    texts.append(c + "*".join(
                        f"u{i+1}^{x}" for i, x in enumerate(exps) if x
                    ))
                m1 = monomial_roby(form(texts[0], e, ("u1", "u2")))
                m2 = monomial_roby(form(texts[1], e, ("u1", "u2")))
                t = twisted_tensor(m1, m2, xi)
                assert verify_roby(t).ok, texts


class TestCharMorphism:
    def test_split_idempotent_images(self):
        cm = char_morphism(split_roby(2))
        assert cm.matrices[0] == PolyMatrix.from_rows([[1, 0], [0, 0]])
        assert cm.matrices[1] == PolyMatrix.from_rows([[0, 0], [0, 1]])
        report = verify_char_morphism(cm)
        assert report.ok
        assert report.get("unit").ok
        assert report.get("multiplicativity").ok

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_split_extraction_verifies(self, d):
        assert verify_char_morphism(char_morphism(split_roby(d))).ok

    def test_noncyclic_t_slot_rejected(self):
        alg = monogenic_algebra(parse_poly("z^2 - x*y - z2^2"), "z")
        m = monomial_charpoly_roby(MonomialSpec(2, 0, ("-z2", "z2"), (2, 2)), alg)
        with pytest.raises(VerificationError, match="monic"):
            char_morphism(m)

    def test_form_module_rejected(self):
        with pytest.raises(InputError, match="T-slot"):
            char_morphism(monomial_roby(form("x^2", 2, ("x",))))

    def test_missing_source_rejected(self):
        s = split_roby(2)
        bare = GradedRobyModule(
            s.degree, s.grading, s.action_names, s.actions, s.target_poly,
            target_vars=s.target_vars, tslot=s.tslot, tvar=s.tvar,
        )
        with pytest.raises(InputError, match="source"):
            char_morphism(bare)

    def test_cayley_hamilton_without_multiplicativity(self):
        # upper-triangular pair: each chi(generic) collapses even though the
        # assignment is not an algebra morphism
        alg = split_algebra(2)
        cm = CharMorphism(
            alg,
            [
                PolyMatrix.from_rows([[1, "a"], [0, 0]]),
                PolyMatrix.from_rows([[0, "b"], [0, 1]]),
            ],
            char_poly(alg),
        )
        report = verify_char_morphism(cm)
        assert report.ok
        assert report.get("cayley_hamilton").ok
        assert not report.get("unit").ok
        assert not report.get("multiplicativity").ok

    def test_identity_only_assignment_fails(self):
        alg = split_algebra(2)
        cm = CharMorphism(
            alg, [PolyMatrix.identity(2), PolyMatrix.identity(2)], char_poly(alg)
        )
        report = verify_char_morphism(cm)
        assert not report.ok
        assert not report.get("cayley_hamilton").ok

    def test_matrix_count_must_match_rank(self):
        alg = split_algebra(2)
        with pytest.raises(InputError, match="one matrix per"):
            CharMorphism(alg, [PolyMatrix.identity(2)], char_poly(alg))

    def test_invariant_subspaces_propagate(self):
        # actions preserving a coordinate subspace force the same of C:
        # C = -A * T^(d-1) multiplies block structure through
        s = split_roby(2)
        two = PolyMatrix.identity(2)

        def dsum(a, b):
            top = PolyMatrix.from_rows
            n = a.nrows
            rows = [
                [a.entry(i, j) for j in range(n)] + [Poly.zero()] * n
                for i in range(n)
            ] + [
                [Poly.zero()] * n + [b.entry(i, j) for j in range(n)]
                for i in range(n)
            ]
            return top(rows)

        m = GradedRobyModule(
            2,
            s.grading + s.grading,
            s.action_names,
            [dsum(a, a) for a in s.actions],
            s.target_poly,
            target_vars=s.target_vars,
            tslot=dsum(s.tslot, s.tslot),
            tvar=s.tvar,
            source_algebra=s.source_algebra,
        )
        assert verify_roby(m).ok
        for c in char_morphism(m).matrices:
            for r in range(4):
                for col in range(4):
                    if (r < 2) != (col < 2):
                        assert not c.entry(r, col)


class TestFiltration:
    def remark_morphism(self):
        alg = split_algebra(2)
        return CharMorphism(
            alg,
            [
                PolyMatrix.from_rows([[1, "a"], [0, 0]]),
                PolyMatrix.from_rows([[0, "b"], [0, 1]]),
            ],
            char_poly(alg),
        )

    def test_quotients_group_equal_labels(self):
        f = Filtration([1, 0, 1, 0])
        assert f.labels == (1, 0, 1, 0)
        assert (f.dim, f.levels) == (4, (0, 1))
        assert f.quotients() == [(0, [1, 3]), (1, [0, 2])]
        assert Filtration.trivial(3).quotients() == [(0, [0, 1, 2])]

    def test_noncommuting_products_are_checked_in_both_orders(self):
        # B = k[z,w]/(z^2, zw, w^2) with C(z) = E23, C(w) = E12: C(z) C(w) = 0
        # is the image of zw, but C(w) C(z) = E13 is not
        zero = [0, 0, 0]
        b = FreeAlgebra(
            ["1", "z", "w"],
            [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], zero, zero],
                [[0, 0, 1], zero, zero],
            ],
        )
        cz = PolyMatrix.from_rows([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        cw = PolyMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        matrices = [PolyMatrix.identity(3), cz, cw]
        assert b.action_laws(matrices) == (True, (2, 1))
        cm = CharMorphism(b, matrices, char_poly(b))
        filtered = verify_filtered_pseudo(cm, Filtration.trivial(3))
        check = filtered.get("quotient_multiplicativity")
        assert not check.ok and not filtered.ok
        assert check.detail == "level 0: C(w)*C(z) is not the image of the product"
        report = verify_char_morphism(cm)
        assert report.get("cayley_hamilton").ok and report.get("unit").ok
        check = report.get("multiplicativity")
        assert not check.ok
        assert check.detail == "C(w)*C(z) is not the image of the product"

    def test_flag_filtration_fixes_the_remark_example(self):
        cm = self.remark_morphism()
        report = verify_filtered_pseudo(cm, Filtration([0, 1]))
        assert report.ok
        assert report.get("flags_preserved").ok
        assert report.get("quotient_unit").ok
        assert report.get("quotient_multiplicativity").ok

    def test_trivial_filtration_sees_the_failure(self):
        cm = self.remark_morphism()
        report = verify_filtered_pseudo(cm, Filtration.trivial(2))
        assert not report.ok
        assert not report.get("quotient_unit").ok

    def test_wrong_flag_leaks(self):
        cm = self.remark_morphism()
        report = verify_filtered_pseudo(cm, Filtration([1, 0]))
        assert not report.ok
        assert not report.get("flags_preserved").ok
        assert "leaves a flag" in report.get("flags_preserved").detail

    def test_honest_morphism_passes_trivially(self):
        cm = char_morphism(split_roby(3))
        assert verify_filtered_pseudo(cm, Filtration.trivial(3)).ok

    def test_dimension_mismatch(self):
        with pytest.raises(InputError, match="dimension"):
            verify_filtered_pseudo(self.remark_morphism(), Filtration.trivial(3))

    def test_flag_check_matches_the_nested_loop(self):
        def nested_loop(cm, filtration):
            # the flag scan verify_filtered_pseudo once ran, kept as the oracle;
            # the flag at level l holds every vector labelled at most l
            labels = filtration.labels
            flags = [{i for i in range(cm.dim) if labels[i] <= lv} for lv in filtration.levels]
            for name, m in zip(cm.source.basis_names, cm.matrices):
                for f in flags:
                    for c in sorted(f):
                        for r in range(cm.dim):
                            if r not in f and m.data[r * m.ncols + c]:
                                return False, f"C({name}) entry ({r},{c}) leaves a flag"
            return True, ""

        rng = random.Random(46)
        alg = split_algebra(2)
        chi = char_poly(alg)
        verdicts = set()
        for trial in range(300):
            n = rng.randrange(1, 8)
            if rng.random() < 0.5:
                filtration = Filtration([rng.randrange(0, 4) for _ in range(n)])
            else:
                # a chain cut from a random order: vector order[i] first lies
                # in the flag of the first cut past i
                order = rng.sample(range(n), n)
                cuts = sorted(rng.sample(range(1, n), rng.randrange(0, n))) + [n]
                labels = [0] * n
                for i, v in enumerate(order):
                    labels[v] = next(k for k, cut in enumerate(cuts) if i < cut)
                filtration = Filtration(labels)
            level = {i: k for k, (_, idx) in enumerate(filtration.quotients()) for i in idx}

            def entry(r, c):
                # flag-preserving entries are common, a leaking one is rare
                odds = 0.4 if level[r] <= level[c] else 0.03
                return rng.choice((1, -2, "a", "x - 1")) if rng.random() < odds else 0

            matrices = [
                PolyMatrix.from_rows([[entry(r, c) for c in range(n)] for r in range(n)])
                for _ in range(2)
            ]
            cm = CharMorphism(alg, matrices, chi)
            check = verify_filtered_pseudo(cm, filtration).get("flags_preserved")
            want = nested_loop(cm, filtration)
            assert (check.ok, check.detail) == want, f"trial {trial}"
            verdicts.add(want[0])
        assert verdicts == {True, False}


class TestLineReindexing:
    def test_in_ideal(self):
        assert in_ideal(parse_poly("z2*x + z2^2"), ("z2",))
        assert not in_ideal(parse_poly("x + z2"), ("z2",))
        assert in_ideal(Poly.zero(), ("z2",))

    def test_factor_already_last(self):
        spec = MonomialSpec(2, 0, ("x", "z2"), (1, 2))
        assert reindex_for_line(spec, ("z2",)) is spec

    def test_factor_moves_to_last(self):
        spec = MonomialSpec(2, 0, ("z2", "x"), (1, 2))
        out = reindex_for_line(spec, ("z2",))
        assert out.factors == (parse_poly("x"), parse_poly("z2"))
        assert out.dual_indices == (2, 1)
        dual_names = ("G1", "G2")
        assert out.value(dual_names, "t") == spec.value(dual_names, "t")

    def test_no_ideal_factor(self):
        spec = MonomialSpec(2, 0, ("x", "y"), (1, 2))
        with pytest.raises(InputError, match="line ideal"):
            reindex_for_line(spec, ("z2",))


class TestSplitCoverModules:
    """Modules on k^d (x) W for a rank-d algebra A and a module W of B.

    T acts by the split T on k^d and gamma_p by the sum over m of
    slot_m (x) rho(component m of gamma_p), for d maps A -> B given on
    B-coordinates.  The module is built by hand here, so each test asks
    the verifiers alone whether the d maps multiply out to chi_A.
    """

    def hypersurface(self):
        return monogenic_algebra(parse_poly("z^2 - x*y"), "z")

    def cover_module(self, algebra, components, w_actions):
        split = split_roby(algebra.rank)
        w = w_actions[0].nrows
        n = algebra.rank * w

        def rho(coords):
            return PolyMatrix.combination(zip(coords, w_actions), w)

        actions = [
            PolyMatrix.combination(
                [(1, slot.kron(rho(coords))) for slot, coords in zip(split.actions, row)], n
            )
            for row in components
        ]
        grading = [g for g in split.grading for _ in range(w)]
        return GradedRobyModule.over(
            algebra, grading, actions, split.tslot.kron(PolyMatrix.identity(w))
        )

    def factorization_module(self, components=(((1, 0), (1, 0)), ((0, -1), (0, 1)))):
        # default z -> (-z, z): the two sections of the double cover
        bprime = PolyMatrix.from_rows([["0", "x"], ["y", "0"]])
        return self.cover_module(
            self.hypersurface(), components, [PolyMatrix.identity(2), bprime]
        )

    def test_factorization_module(self):
        m = self.factorization_module()
        assert m.dim == 4
        assert m.action("z") == PolyMatrix.from_rows([
            ["0", "0", "0", "x"],
            ["0", "0", "y", "0"],
            ["0", "-x", "0", "0"],
            ["-y", "0", "0", "0"],
        ])
        assert verify_roby(m).ok
        cm = char_morphism(m)
        assert cm.matrices[0] == PolyMatrix.identity(4)
        assert cm.matrices[1] == PolyMatrix.from_rows([
            ["0", "-x", "0", "0"],
            ["-y", "0", "0", "0"],
            ["0", "0", "0", "x"],
            ["0", "0", "y", "0"],
        ])
        assert verify_char_morphism(cm).ok

    def test_factorization_module_has_the_mf_seed_actions(self):
        # the same module as the matrix-factorization seed, graded one step over
        m = self.factorization_module()
        seed = mf_seed("x", "y")
        assert m.named_actions == seed.named_actions
        assert m.target_poly == seed.target_poly
        assert m.grading == tuple((g + 1) % 2 for g in seed.grading)

    def test_restriction_to_a_line_still_verifies(self):
        cm = char_morphism(self.factorization_module()).substitute_base({"y": 0})
        assert cm.charpoly.poly == parse_poly("t^2 - 2*t*G1 + G1^2")
        assert verify_char_morphism(cm).ok

    def test_identity_embedding_fails_the_identity(self):
        # (z, z) is componentwise a morphism but does not multiply out to chi
        m = self.factorization_module((((1, 0), (1, 0)), ((0, 1), (0, 1))))
        report = verify_roby(m)
        assert not report.ok
        failed = [c for c in report.checks if not c.ok]
        assert [c.name for c in failed] == ["power_identity"]
        assert failed[0].detail == "entry (0,0): 2*s2^2*x*y"

    def test_char_morphism_commutes_with_the_module_of_b(self):
        # C(gamma_p) is B-linear: it commutes with I_d (x) rho(b) for each b
        bprime = PolyMatrix.from_rows([["0", "x"], ["y", "0"]])
        cm = char_morphism(self.factorization_module())
        for mb in (PolyMatrix.identity(2), bprime):
            diag = PolyMatrix.identity(2).kron(mb)
            for cmat in cm.matrices:
                assert cmat * diag == diag * cmat

    def test_action_laws_of_the_module_of_b(self):
        alg = self.hypersurface()
        bprime = PolyMatrix.from_rows([["0", "x"], ["y", "0"]])
        assert alg.action_laws([PolyMatrix.identity(2), bprime]) == (True, None)
        # z acting by zero breaks z*z = x*y
        assert alg.action_laws([PolyMatrix.identity(2), PolyMatrix.zeros(2, 2)]) == (True, (1, 1))
        assert alg.action_laws([PolyMatrix.zeros(2, 2), PolyMatrix.zeros(2, 2)]) == (False, None)

    def test_split_cover_of_the_split_algebra(self):
        alg = split_algebra(2)
        actions = [
            PolyMatrix.from_rows([[1, 0], [0, 0]]),
            PolyMatrix.from_rows([[0, 0], [0, 1]]),
        ]
        m = self.cover_module(alg, (((1, 0), (0, 1)), ((0, 1), (1, 0))), actions)
        assert m.action("e1") == PolyMatrix.from_rows([
            [0, 0, -1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, -1, 0, 0],
        ])
        assert verify_roby(m).ok
        assert verify_char_morphism(char_morphism(m)).ok


class TestFreshNames:
    def test_collisions_get_suffixed(self):
        assert fresh_names("s", 2, {"s1"}) == ["s1_", "s2"]
        assert fresh_names("r", 1, {"r"}) == ["r_"]

    def test_verification_survives_hostile_variable_names(self):
        # base coefficients named like the fresh generics must not collide
        m = monomial_roby(form("s1*x^2*y", 3, ("x", "y")))
        assert verify_roby(m).ok


def view_fixtures():
    """One module of each builder, a tensor of forms and a parsed module file."""
    quadric = monogenic_algebra(parse_poly("z^2 - x*y - z2^2"), "z")
    return {
        "split": split_roby(3),
        "mf": mf_seed("x", "y"),
        "cyclic": cyclic_cover_seed(companion_matrix("z^3 - x^3 - y^3", "z"), 3),
        "monomial": monomial_charpoly_roby(MonomialSpec(2, 1, ("z2",), (2,)), quadric),
        "form": monomial_roby(form("q*x^2*y", 3, ("x", "y", "w"))),
        "form tensor": twisted_tensor(
            monomial_roby(form("x^2", 2, ("x",))), monomial_roby(form("y^2", 2, ("y",))), -1
        ),
        "parsed": parse_roby_module(
            (Path(__file__).parent / "golden" / "cyclic_z3_x_y.roby").read_text()
        ),
    }


class TestOneStore:
    @pytest.mark.parametrize("name", list(view_fixtures()))
    def test_views_read_the_named_actions(self, name):
        m = view_fixtures()[name]
        named = m.named_actions
        assert m.has_tslot == (m.tvar is not None)
        basis = named[:-1] if m.has_tslot else named
        assert m.action_names == tuple(n for n, _, _ in basis)
        assert m.target_vars == tuple(v for _, v, _ in basis)
        assert len(m.actions) == len(basis)
        assert all(a is b for a, (_, _, b) in zip(m.actions, basis))
        if m.has_tslot:
            assert named[-1][:2] == ("T", m.tvar)
            assert m.tslot is named[-1][2]
        else:
            assert m.tslot is None
        for n, _, a in basis:
            assert m.action(n) is a

    def test_the_views_are_not_stored(self):
        assert not {"actions", "target_vars", "tslot"} & set(GradedRobyModule.__slots__)
        m = split_roby(2)
        for attr in ("actions", "target_vars", "tslot", "has_tslot"):
            with pytest.raises(AttributeError):
                setattr(m, attr, None)


class TestModuleConstruction:
    def test_degree_and_shape_validation(self):
        a = PolyMatrix.zeros(2, 2)
        with pytest.raises(InputError, match=">= 2"):
            GradedRobyModule(1, (0, 0), ("x",), [a], Poly.zero())
        with pytest.raises(InputError, match="grading length"):
            GradedRobyModule(2, (0,), ("x",), [a], Poly.zero())
        with pytest.raises(InputError, match="per name"):
            GradedRobyModule(2, (0, 0), ("x", "y"), [a], Poly.zero())
        with pytest.raises(InputError, match="equal size"):
            GradedRobyModule(
                2, (0, 0), ("x", "y"), [a, PolyMatrix.zeros(3, 3)], Poly.zero()
            )
        with pytest.raises(InputError, match="duplicate"):
            GradedRobyModule(2, (0, 0), ("x", "x"), [a, a], Poly.zero())
        with pytest.raises(InputError, match="T-slot"):
            GradedRobyModule(2, (0, 0), ("x",), [a], Poly.zero(), tslot=a)

    def test_broken_grading_is_caught(self):
        m = GradedRobyModule(
            2, (0, 0), ("x",), [PolyMatrix.from_rows([[0, 1], [1, 0]])],
            parse_poly("x^2"),
        )
        report = verify_roby(m)
        assert not report.ok
        assert not report.get("graded").ok
        assert report.get("power_identity").ok

    def test_graded_check_matches_the_nested_loop(self):
        def nested_loop(module):
            # the scan _graded_check once ran over every slot, kept as the oracle
            e, g = module.degree, module.grading
            named = list(zip(module.action_names, module.actions))
            if module.tslot is not None:
                named.append(("T", module.tslot))
            for name, m in named:
                for r in range(m.nrows):
                    for c in range(m.ncols):
                        if m.data[r * m.ncols + c] and g[r] != (g[c] + 1) % e:
                            return False, f"action {name} entry ({r},{c}) breaks the grading"
            return True, ""

        rng = random.Random(47)
        verdicts = set()
        for trial in range(300):
            e = rng.randrange(1, 5)
            n = rng.randrange(0, 9)
            g = [rng.randrange(e) for _ in range(n)]
            density = rng.choice((0.0, 0.02, 0.3, 1.0))

            def action():
                def entry(r, c):
                    # graded entries at the chosen density, a breaking one is rare
                    odds = density if g[r] == (g[c] + 1) % e else density * 0.05
                    return rng.choice((1, -2, "a", "x - 1")) if rng.random() < odds else 0

                if not n:
                    return PolyMatrix.zeros(0, 0)
                return PolyMatrix.from_rows([[entry(r, c) for c in range(n)] for r in range(n)])

            module = SimpleNamespace(
                degree=e, grading=g, action_names=("u", "v"), actions=[action(), action()],
                tslot=action() if rng.random() < 0.5 else None,
            )
            module.named_actions = tuple(zip(module.action_names, "ab", module.actions))
            if module.tslot is not None:
                module.named_actions += (("T", "t", module.tslot),)
            report = Report(title="graded")
            _graded_check(report, module)
            check = report.get("graded")
            want = nested_loop(module)
            assert (check.ok, check.detail) == want, f"trial {trial}"
            verdicts.add(want[0])
        assert verdicts == {True, False}

    def test_source_names_must_line_up(self):
        s = split_roby(2)
        other = split_algebra(2, dual_names=("h1", "h2"))
        with pytest.raises(InputError, match="duals"):
            s.with_source(other)

    def test_with_source_round_trip(self):
        s = split_roby(2)
        again = s.with_source(split_algebra(2))
        assert again.source_algebra == s.source_algebra
        assert char_morphism(again).matrices == char_morphism(s).matrices
